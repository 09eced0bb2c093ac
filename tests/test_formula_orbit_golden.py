"""Golden outputs of the formula engine of ``measures.orbit`` on the starts
the CLI cannot reach: a short-affine (sa) and a short-lattice (sl)
slit-cover start, and a vertical-lattice start.  Each digest is the sha256
of the returns' bytes followed by the bytes of every ``SectionColumns``
column, recorded while the formula orbit still stepped point by point.
"""

import hashlib
import math

import numpy as np
import pytest

from slitgaps.measures import FORMULA, orbit
from slitgaps.transversal import SA, SECTION_KINDS, SL, VERTICAL, row_columns

STARTS = {
    "sa": (SA, 0.5, 0.6, 2.0, 0.9),
    "sl": (SL, 0.6, 0.5, 0.5, 0.8),
    "vertical": (VERTICAL, 0.8, math.nan, 0.3, 0.5),
}

# start: (kind counts of the 300 rows, digest)
GOLDEN = {
    "sa": ({"sl": 172, "sa": 128}, "5793bdce0506b39181d39d25ce637b0e52332019319031d17489e5634cd3eb8d"),
    "sl": ({"sl": 147, "sa": 153}, "d429856144fe363254bb6a35aa5aa56912e4a3da74c7d150a53cf28bcd94154f"),
    "vertical": ({"vertical": 300}, "e55762e0c40a023c979c22649ca2276bcbf107d40bb7db6dd6db9456b2574024"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_formula_orbit_matches_its_golden_digest(name):
    [(returns, cols)] = orbit(row_columns([STARTS[name]]), FORMULA, 300)
    kinds, counts = np.unique(cols.kind, return_counts=True)
    digest = hashlib.sha256(b"".join(c.tobytes() for c in (returns, *cols))).hexdigest()
    assert ({SECTION_KINDS[k]: int(c) for k, c in zip(kinds, counts)}, digest) == GOLDEN[name]
