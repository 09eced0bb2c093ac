"""Gap statistics of holonomy slopes on marked tori and their slit covers.

The package splits into five layers, each importing only the ones before
it: exact lattice/strip geometry (``geometry``), return-time formulas on the
transversal sections (``transversal``), the enumeration ground truth
(``oracle``), seeded Monte Carlo over the section measures and the
formula-vs-oracle differential tester (``measures``), and the closed-form
tail laws with their quadrature twins (``closedform``).  ``cli`` ties them
into a batch command line.
"""

__version__ = "0.1.0"
