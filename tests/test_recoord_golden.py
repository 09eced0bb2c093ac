"""Golden digest of recoordinatization: the sha256 of every outcome of the
affine and the slit-cover time-0 ``flowed_section_coords`` over a seeded set
of surfaces, recorded while each section's recoordinatization still had its
own scalar implementation.

An outcome is the time-0 row printed as the ``repr`` of the section point
classes of that time (``_point_repr``), or the error's class name and
message.  The surfaces are affine-section points flowed by arbitrary
times and by their own doubled strip slopes (which put the lattice or a
marking representative exactly on the horizontal), affine-section and
vertical lattices flowed by arbitrary times with the marking (alpha, 0) or
its negation, short-lattice slit-cover points, the closed-box cases of
``test_recoordinatize_closed_box_boundaries`` and a few surfaces that fail
``AffineLattice.check``.
"""

import hashlib
import math

import numpy as np

from slitgaps.errors import SlitgapsError
from slitgaps.geometry import AffineLattice, Mat2, SurfaceMode, Vec2, horocycle_apply
from slitgaps.oracle import oracle_strip_slopes
from slitgaps.transversal import (
    HORIZONTAL_TOL,
    SA,
    SL,
    VERTICAL,
    OmegaCoords,
    _first_surface,
    delta_basis,
    flowed_section_coords,
    omega_to_surface,
    row_columns,
)

GOLDEN = "b47550127444492f4272eb57b8380730e9c6192ae7d78363d169c7dfa6ba7d4f"


def _omega(rng):
    a = rng.uniform(0.05, 1.0)
    b = rng.uniform(1.0 - a, 1.0)
    return OmegaCoords(a, b, rng.uniform(0.0, 1.0 / (a * b)), rng.uniform(0.01, 1.0))


def _surfaces():
    identity = Mat2(1.0, 0.0, 0.0, 1.0)
    yield AffineLattice(identity, Vec2(0.3, -HORIZONTAL_TOL))
    yield AffineLattice(identity, Vec2(0.3, 2.0 * HORIZONTAL_TOL))
    yield AffineLattice(identity, Vec2(1.0, 0.0))
    yield AffineLattice(Mat2(0.5, 1.0, 0.0, 2.0), Vec2(0.8, 0.0))
    yield AffineLattice(Mat2(HORIZONTAL_TOL, -2.0, 0.5, 0.0), Vec2(0.3, 0.0))
    yield AffineLattice(Mat2(2.0, 0.0, 0.0, 1.0), Vec2(0.3, 0.0))
    yield AffineLattice(identity, Vec2(math.nan, 0.0))
    yield AffineLattice(Mat2(math.inf, 0.0, 0.0, 1.0), Vec2(0.3, 0.0))

    rng = np.random.default_rng(20040)
    for _ in range(50):
        yield horocycle_apply(rng.uniform(0.0, 6.0), omega_to_surface(_omega(rng)))
    for sign in (1.0, 1.0, -1.0):
        # the lattice flowed by an arbitrary time, the marking (alpha, 0) or
        # its negation (which only the doubled form takes)
        for _ in range(50):
            p = _omega(rng)
            g = horocycle_apply(rng.uniform(0.0, 6.0), omega_to_surface(p)).g
            yield AffineLattice(g, Vec2(sign * p.alpha, 0.0))
    for _ in range(100):
        surface = omega_to_surface(_omega(rng))
        for t in oracle_strip_slopes(surface, SurfaceMode.DOUBLED_SLIT, 3):
            yield horocycle_apply(float(t), surface)
    for sign in (1.0, -1.0):
        for _ in range(50):
            a = rng.uniform(0.05, 1.0)
            p = (VERTICAL, a, math.nan, rng.uniform(0.0, a * a), rng.uniform(0.01, 1.0))
            g = horocycle_apply(rng.uniform(0.0, 3.0), _first_surface(row_columns([p]))).g
            yield AffineLattice(g, Vec2(sign * p[4], 0.0))
    for _ in range(150):
        # flowed by 0, or by s with s*a just under or over HORIZONTAL_TOL
        a = rng.uniform(0.05, 1.0)
        b = rng.uniform(1.0 - a, 1.0)
        v = delta_basis(a, b).apply(Vec2(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
        t = rng.choice([0.0, 0.5, 2.0]) * HORIZONTAL_TOL / a
        yield horocycle_apply(t, _first_surface(row_columns([(SL, a, b, float(v.x), float(v.y))])))


def _point_repr(kind, a, b, s, alpha) -> str:
    """A row as the ``repr`` of the point class that held it when the digest
    was recorded."""
    if kind == SL:
        return f"WPointSL(a={a!r}, b={b!r}, v1={s!r}, v2={alpha!r})"
    if math.isnan(b):
        point = f"VLCoords(a={a!r}, s={s!r}, alpha={alpha!r})"
    else:
        point = f"OmegaCoords(a={a!r}, b={b!r}, s={s!r}, alpha={alpha!r})"
    return f"WPointSA(coords={point})" if kind == SA else point


def _outcome(surface, slit: bool) -> str:
    try:
        row = (c[0].item() for c in flowed_section_coords(surface, (0.0,), slit=slit))
        return _point_repr(*row)
    except SlitgapsError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_recoordinatization_matches_its_golden_digest():
    lines = [_outcome(surface, slit) for surface in _surfaces() for slit in (False, True)]
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == GOLDEN
