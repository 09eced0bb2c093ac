"""API surface: every top-level function and class in the package, and
every public method of a top-level class, is named by code outside its own
definition, in another part of ``src/`` or in ``bench/``.  A name that only
tests call is a wrapper to delete, with its tests moved onto the entry
point that remains.

References are read off the syntax tree: a name or an attribute in code.
Docstrings, comments and strings do not count.  Two more guards catch what
outlives a removed option: an error type that nothing raises or catches,
and a flag that the README and the parser do not both name.
"""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

from slitgaps.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC, BENCH = ROOT / "src" / "slitgaps", ROOT / "bench"

# kept although only tests call them, one reason each
ALLOWED = {
    "compare_pieces": "the piecewise closed form against quadrature, criterion 4's report",
    "renormalized_box_gaps": "the box side of criterion 9's bridge to strip gaps",
    "omega_return_vec": "the per-kind reference that section_returns is compared against",
}


def _names(tree) -> Counter:
    """Names and attribute names in the code of ``tree``, counted; an
    attribute name also counts under ".name", the way a method is named."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out.update((node.attr, "." + node.attr))
    return out


def _definitions(tree):
    """(name, key, node) of each top-level function and class of ``tree``,
    and of each public, non-dunder method of its classes, named
    Class.method; a method's key is ".method", since a call names it as an
    attribute and a local variable of that name does not count."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", "." + item.name, item


def _unreferenced(trees: dict, named: Counter) -> dict:
    """{name: module} of each definition in ``trees`` ({module: tree}) that
    ``named`` counts no more often than its own definition does."""
    return {
        name: module
        for module, tree in trees.items()
        for name, key, node in _definitions(tree)
        if named[key] == _names(node)[key]
    }


def test_every_definition_has_a_caller_outside_the_tests():
    src = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    named = sum((_names(ast.parse(p.read_text(encoding="utf-8"))) for p in BENCH.glob("*.py")), Counter())
    named += sum((_names(tree) for tree in src.values()), Counter())
    unused = _unreferenced(src, named)
    assert {name: module for name, module in unused.items() if name not in ALLOWED} == {}
    # an allowed name that gained a caller, or is gone, leaves the list
    assert sorted(set(ALLOWED) - set(unused)) == []


def test_the_guard_sees_a_method_only_tests_call():
    point = "class Point:\n    def norm(self):\n        return 1\n    def _hidden(self):\n        pass\n"
    assert [name for name, *_ in _definitions(ast.parse(point))] == ["Point", "Point.norm"]

    def unused(code):
        tree = ast.parse(code)
        return _unreferenced({"m": tree}, _names(tree))

    # a local variable of the method's name is no call of it; an attribute is
    assert "Point.norm" in unused(point + "def length(p):\n    norm = 2\n    return norm\n")
    assert "Point.norm" not in unused(point + "def length(p):\n    return p.norm()\n")


# the field names of a section point held as an object: coordinates of the
# three sections, or the affine point of a short-affine state
SECTION_FIELDS = {"a", "b", "s", "alpha", "v1", "v2", "coords"}


def _point_classes(tree) -> list:
    """Top-level classes of ``tree`` whose annotated fields are all section
    coordinates: section points held as objects, not as rows of columns."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            fields = {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)}
            if fields and fields <= SECTION_FIELDS:
                out.append(node.name)
    return out


def _isinstance_tests(tree, name: str) -> int:
    """How many ``isinstance`` calls of ``tree`` test against ``name``."""
    return sum(
        1
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2 and name in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    )


def test_section_points_are_rows_but_one_hand_given_point():
    # OmegaCoords is the one point class: the point of ``gaps --omega`` and
    # of the benchmark; every other section point is a row of SectionColumns
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    assert [name for tree in trees for name in _point_classes(tree)] == ["OmegaCoords"]
    assert sum(_isinstance_tests(tree, "OmegaCoords") for tree in trees) == 0


def test_the_guard_sees_a_point_class_and_a_test_against_it():
    code = (
        "@dataclass\nclass VLCoords:\n    a: float\n    s: float\n    alpha: float\n\n"
        "class MeasureSpec:\n    kind: str\n    a: float\n\n"
        "def f(p):\n    return isinstance(p, (int, VLCoords))\n"
    )
    tree = ast.parse(code)
    assert _point_classes(tree) == ["VLCoords"]
    assert _isinstance_tests(tree, "VLCoords") == 1 and _isinstance_tests(tree, "MeasureSpec") == 0


def _raised_or_caught(tree) -> set:
    """Names that ``tree`` raises (``raise E`` or ``raise E(...)``) or
    catches (``except E`` or ``except (E, F)``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.update(n.id for n in [exc] if isinstance(n, ast.Name))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            out.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return out


def test_every_error_type_is_raised_or_caught():
    # an error type that nothing raises or catches outlived its last use
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = set().union(*(_raised_or_caught(ast.parse(p.read_text(encoding="utf-8"))) for p in SRC.glob("*.py")))
    assert sorted(declared - used) == []


def test_the_error_guard_sees_raise_and_except():
    code = "try:\n    raise A('x')\nexcept (B, C):\n    raise D\nexcept E as exc:\n    f(G)\n"
    assert _raised_or_caught(ast.parse(code)) == {"A", "B", "C", "D", "E"}


def _long_flags(parser) -> set:
    """The long flags of ``parser`` and of every subcommand's parser."""
    out = set()
    for action in parser._actions:
        out.update(flag for flag in action.option_strings if flag.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _long_flags(sub)
    return out


def test_the_readme_names_every_flag_and_no_other():
    # argparse's own --help and --version, and pip's flag in the install notes
    readme = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text(encoding="utf-8")))
    parser = _long_flags(build_parser())
    assert readme - {"--no-build-isolation"} == parser - {"--help", "--version"}
