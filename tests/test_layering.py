"""Layering: the package's modules import one another in one direction.

Read off the syntax trees of ``src/slitgaps/*.py``: the module-level imports
within the package form an acyclic graph, the oracle (the ground truth)
imports neither the samplers nor the command line, and the one import inside
a function is ``cli``'s ``from . import closedform``, which keeps scipy's
quadrature out of every other command (``test_import_boundary``).
"""

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slitgaps"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
LAZY = {("cli", "closedform")}


def _targets(node: ast.AST) -> set:
    """The package modules that an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is not None:
            return {node.module.split(".")[0]}
        return {a.name if a.name in MODULES else "__init__" for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "slitgaps":
        return {(node.module.split(".") + ["__init__"])[1]}
    if isinstance(node, ast.Import):
        return {(a.name.split(".") + ["__init__"])[1] for a in node.names if a.name.split(".")[0] == "slitgaps"}
    return set()


def _imports(tree: ast.Module):
    """(module-level targets, targets of imports inside functions)."""
    inner = {
        t
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for t in _targets(node)
    }
    outer = set().union(*(_targets(node) for node in ast.walk(tree))) - inner
    return outer, inner


def _graph() -> dict:
    return {m: _imports(ast.parse((SRC / f"{m}.py").read_text(encoding="utf-8"))) for m in MODULES}


def test_module_level_imports_are_acyclic_in_layer_order():
    graph = _graph()
    order = list(graphlib.TopologicalSorter({m: outer - {m} for m, (outer, _) in graph.items()}).static_order())
    layers = [order.index(m) for m in ("geometry", "transversal", "oracle", "measures", "cli")]
    assert layers == sorted(layers)


def test_the_oracle_imports_no_sampler_and_no_command_line():
    outer, inner = _graph()["oracle"]
    assert not (outer | inner) & {"measures", "cli", "closedform"}


def test_the_only_import_inside_a_function_is_the_lazy_quadrature():
    assert {(m, t) for m, (_, inner) in _graph().items() for t in inner} == LAZY


def test_the_reader_tells_module_level_from_function_imports():
    code = "from .geometry import Vec2\nimport slitgaps.errors\n\ndef f():\n    from . import closedform, __version__\n"
    tree = ast.parse(code)
    assert _imports(tree) == ({"geometry", "errors"}, {"closedform", "__init__"})
