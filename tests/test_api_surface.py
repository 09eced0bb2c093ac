"""API surface: every top-level function and class in the package is named
by code outside its own definition, in another part of ``src/`` or in
``bench/``.  A name that only tests call is a wrapper to delete, with its
tests moved onto the entry point that remains.

References are read off the syntax tree: a name or an attribute in code.
Docstrings, comments and strings do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC, BENCH = ROOT / "src" / "slitgaps", ROOT / "bench"

# kept although only tests call them, one reason each
ALLOWED = {
    "compare_pieces": "the piecewise closed form against quadrature, criterion 4's report",
    "renormalized_box_gaps": "the box side of criterion 9's bridge to strip gaps",
    "_draw_batch": "one chunk's draws as the sampler lays them out, the tests' seeded batches",
    "omega_return_vec": "the per-kind reference that section_returns is compared against",
}


def _names(tree) -> Counter:
    """Names and attribute names in the code of ``tree``, counted."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _unreferenced() -> dict:
    """{name: module} of each top-level definition no other code names."""
    src = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    named = sum((_names(ast.parse(p.read_text(encoding="utf-8"))) for p in BENCH.glob("*.py")), Counter())
    named += sum((_names(tree) for tree in src.values()), Counter())
    return {
        node.name: module
        for module, tree in src.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and named[node.name] == _names(node)[node.name]
    }


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _unreferenced()
    assert {name: module for name, module in unused.items() if name not in ALLOWED} == {}
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []
