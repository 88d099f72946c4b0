"""Module layering: each module of multlat imports only from modules before it.

The order is lattice, derived, maps, classify, constructions, harness, cli.
Every import statement counts, including ones nested in functions, so a
deferred import cannot hide a back-edge.  ``__init__.py`` re-exports all of
them and is not checked.  ``tests/oracle.py`` may read no verdict of multlat.
The result records are read-only named tuples, and importing the CLI loads
neither ``dataclasses`` nor ``pathlib``, nor the modules they drag in.  The
theorem harness loads only where ``verify``, ``hunt`` or a harness name of the
package is used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multlat
from multlat import harness

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
    # Every verdict is an entry of the one kernel's store, keyed by its
    # arguments, so the harness needs no per-form dispatch over the classify
    # wrappers; the stock maps and the top check are classify's too.
    imports = {
        alias.name
        for node in ast.walk(_tree("harness"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "classify"
        for alias in node.names
    }
    assert imports == {
        "_entry",
        "_idempotent_entry",
        "_kernel_entry",
        "_compact_pair_entry",
        "_characterization_holders",
        "_delta",
        "_phi",
        "_require_proper",
    }


def test_the_statement_oracle_reads_no_verdict_of_multlat():
    # The harness rows read classify's verdict store, and tests/oracle.py's
    # statements are what the rows are checked against: a statement decided
    # through that store, or through the hunt over it, passes its faults.
    verdicts = {
        node.name
        for node in _tree("classify").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    } | {"parse_predicate", "Predicate", "hunt"}
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multlat")
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "is_phi_delta_primary" in verdicts
    assert (imported | read) & verdicts == set()


RECORDS = (
    multlat.ValidationReport,
    multlat.ElementProfile,
    multlat.StructureProfile,
    multlat.CorpusEntry,
    multlat.Isomorphism,
    multlat.ClassificationRecord,
    multlat.ClassificationReport,
    multlat.HarnessConfig,
    multlat.TheoremProperty,
    multlat.Witness,
    multlat.PropertyResult,
    multlat.HarnessReport,
    harness.Predicate,
    multlat.HuntHit,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_result_records_are_read_only(record):
    value = record._make([None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert value._replace(**{record._fields[0]: 0})[0] == 0


def test_importing_the_cli_loads_no_dataclasses():
    # In a fresh interpreter, since pytest itself loads these modules; -S
    # keeps site's path hooks out, so only multlat's imports count.  The CLI
    # reads and writes files with open(), so pathlib and the modules it
    # pulls in stay out too.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = (
        "import sys, multlat.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize',"
        " 'pathlib', 'fnmatch', 'ntpath', 'urllib.parse'} & sys.modules.keys())))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == []


def test_only_verify_and_hunt_load_the_harness():
    # In a fresh interpreter, as above: importing the CLI and running the
    # commands that never use the harness leave it unloaded, and the package
    # loads it on the first use of one of its names.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = (
        "import sys, multlat, multlat.cli; "
        "loaded = lambda: print('multlat.harness' in sys.modules, file=sys.stderr); "
        "loaded(); "
        "[multlat.cli.main(argv) for argv in (['validate', '--zn', '12'], "
        "['classify', '--zn', '12'], ['export-dot', '--zn', '12'])]; "
        "loaded(); multlat.HarnessConfig; loaded()"
    )
    err = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stderr
    assert err.split() == ["False", "False", "True"]
