"""Memos live on the lattice, or the corpus, they describe.

Tables and verdicts are kept on the lattice object, keyed by element indices
and map kinds, never by lattice value: a fresh lattice equal to a classified
one is classified without comparing the two, and every result is freed with
its lattice.  Hunt's corpus-wide masks are kept on the corpus the same way,
outside its value.  No module-level memo may come back.
"""

import ast
import gc
import weakref
from pathlib import Path

from multlat import (
    FiniteMultiplicativeLattice,
    classification_report,
    default_corpus,
    hunt,
    make_delta,
    make_phi,
    run_all,
    zn_ideal_lattice,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "multlat"
MEMO_DECORATORS = {"lru_cache", "cache"}


def _report(L):
    return classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"))


def test_results_are_freed_with_their_lattices():
    corpus = default_corpus()
    L = zn_ideal_lattice(360)
    delta, phi = make_delta(L, "d1"), make_phi(L, "phi2")
    classification_report(L, delta, phi)
    run_all(corpus)
    hunt("phi2-d1-primary", "prime", corpus)
    hunt(["2-potent-d0-primary", "phiomega-prime"], "d1-primary", corpus)
    objects = [L, delta, phi, corpus, *corpus.lattices()]
    refs = [weakref.ref(x) for x in objects]
    del corpus, L, delta, phi, objects
    gc.collect()  # maps hold their lattice and the lattice's memo holds maps
    assert [r() for r in refs] == [None] * len(refs)


def test_the_hunt_index_lives_on_its_corpus():
    hunted, fresh = default_corpus(), default_corpus()
    hunt(["2-potent-d0-primary", "phiomega-prime"], "d1-primary", hunted)
    assert hunted._memo and not fresh._memo
    # the index is no part of the corpus's value
    assert hunted == fresh and hash(hunted) == hash(fresh)
    assert hunted.extended(zn_ideal_lattice(9), "added")._memo == {}


def test_twin_lattice_is_classified_without_comparing_lattices(monkeypatch):
    first = _report(zn_ideal_lattice(360))
    calls = []
    eq = FiniteMultiplicativeLattice.__eq__

    def counting_eq(self, other):
        calls.append((self.name, other))
        return eq(self, other)

    monkeypatch.setattr(FiniteMultiplicativeLattice, "__eq__", counting_eq)
    twin = _report(zn_ideal_lattice(360))
    monkeypatch.undo()
    assert calls == []
    assert twin.to_dict() == first.to_dict()


def test_run_all_compares_no_lattices(monkeypatch):
    # Maps and isomorphisms carry the very lattice they are checked against,
    # so an identity check settles every shared-lattice test.
    calls = []
    eq = FiniteMultiplicativeLattice.__eq__

    def counting_eq(self, other):
        calls.append((self.name, other))
        return eq(self, other)

    monkeypatch.setattr(FiniteMultiplicativeLattice, "__eq__", counting_eq)
    report = run_all()
    monkeypatch.undo()
    assert len(calls) == 0
    assert report.ok(("T12",))


def _memo_decorators_used(tree):
    """(line, name) for every functools.lru_cache / functools.cache reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in MEMO_DECORATORS:
                    yield node.lineno, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in MEMO_DECORATORS
        ):
            yield node.lineno, f"functools.{node.attr}"
        elif isinstance(node, ast.Name) and node.id == "lru_cache":
            yield node.lineno, node.id


def test_engine_has_no_module_level_memo():
    """A module-level memo keyed by lattice value outlives its lattices."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        found = list(_memo_decorators_used(ast.parse(path.read_text())))
        assert not found, f"{path.name}: {found}"
