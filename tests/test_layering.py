"""Module layering: each module of multlat imports only from modules before it.

The order is lattice, derived, maps, classify, constructions, harness, cli.
Every import statement counts, including ones nested in functions, so a
deferred import cannot hide a back-edge.  ``__init__.py`` re-exports all of
them and is not checked.
"""

import ast
from pathlib import Path

import multlat

ORDER = ("lattice", "derived", "maps", "classify", "constructions", "harness", "cli")
PACKAGE = Path(multlat.__file__).parent


def _imported_modules(path):
    """Names of the multlat modules that path imports, with their line numbers."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                yield node.module.split(".")[0], node.lineno
            elif node.level == 1:
                for alias in node.names:
                    yield alias.name, node.lineno
            elif node.level == 0 and (node.module or "").startswith("multlat."):
                yield node.module.split(".")[1], node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multlat."):
                    yield alias.name.split(".")[1], node.lineno


def test_every_module_is_in_the_order():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


def test_no_module_imports_a_later_one():
    back_edges = []
    for rank, name in enumerate(ORDER):
        path = PACKAGE / f"{name}.py"
        for target, lineno in _imported_modules(path):
            if target in ORDER and ORDER.index(target) >= rank:
                back_edges.append(f"{name}.py:{lineno} imports {target}")
    assert back_edges == []


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_harness_takes_its_bitmask_builder_from_lattice():
    imports = {
        alias.name
        for node in ast.walk(_tree("harness"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "lattice"
        for alias in node.names
    }
    assert "_mask" in imports


def test_lattice_holds_the_only_bitmask_builder():
    # One flags-to-bitmask builder, lattice._mask; no module sums shifted flags.
    builders, shift_sums = [], []
    for name in ORDER:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.FunctionDef) and node.name == "_mask":
                builders.append(name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
                if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
                       for n in ast.walk(node)):
                    shift_sums.append(f"{name}.py:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "maketrans":
                builders.append(f"{name} (maketrans)")
    assert builders == ["lattice", "lattice (maketrans)"]
    assert shift_sums == []


def test_harness_calls_the_kernel_not_a_per_form_wrapper():
    # Every hunt predicate is spelt as the arguments of one kernel, so the
    # harness needs no per-form dispatch over the classify wrappers.
    imports = {
        alias.name
        for node in ast.walk(_tree("harness"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "classify"
        for alias in node.names
    }
    assert imports == {
        "phi_delta_primary_violation",
        "n_potent_violation",
        "compact_pair_violation",
        "characterization_failures",
    }
