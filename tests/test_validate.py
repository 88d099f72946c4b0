"""The bitset validator against the naive one in oracle.py, its scale, and its cache.

``validate`` must return exactly the report of ``oracle.naive_validate``: the
same axiom names, in the same order, each with the same lexicographically
first witness, on every mutant below.  The mutants break the order, the
bounds and the multiplication one or several entries at a time.
"""

import random
import time

import pytest

import oracle
from multlat import (
    FiniteMultiplicativeLattice,
    boolean_frame,
    chain_frame,
    default_corpus,
    parse_lattice,
    serialize,
    validate,
    zn_ideal_lattice,
)
from multlat import lattice as lattice_module
from multlat.cli import main

AXIOMS = (
    "order-reflexive",
    "order-antisymmetric",
    "order-transitive",
    "bottom-least",
    "top-greatest",
    "pairwise-join-exists",
    "pairwise-meet-exists",
    "mul-commutative",
    "mul-associative",
    "mul-identity",
    "mul-annihilates-bottom",
    "mul-join-distributive",
    "mul-monotone",
)


def _copy(L, name, leq=None, mul=None):
    return FiniteMultiplicativeLattice(
        name, L.labels, leq or L.leq_table, mul or L.mul_table, L.bottom, L.top
    )


def _assert_matches_oracle(M):
    got, want = validate(M), oracle.naive_validate(M)
    assert got == want, f"{M.name}: {got.failures} != {want.failures}"


def _order_flips(L):
    for i in L.elements():
        for j in L.elements():
            leq = [list(row) for row in L.leq_table]
            leq[i][j] = not leq[i][j]
            yield _copy(L, f"{L.name}-flip{i}.{j}", leq=leq)


def test_corpus_reports_match_oracle():
    for L in default_corpus().lattices():
        _assert_matches_oracle(L)


@pytest.mark.parametrize(
    "base", [zn_ideal_lattice(12), boolean_frame(3), chain_frame(3)], ids=lambda L: L.name
)
def test_every_order_flip_matches_oracle(base):
    for M in _order_flips(base):
        _assert_matches_oracle(M)


def test_every_z24_mul_mutant_matches_oracle():
    # The 448 mutants of acceptance criterion 9: every entry, every other value.
    z24 = zn_ideal_lattice(24)
    count = 0
    for a in z24.elements():
        for b in z24.elements():
            for v in z24.elements():
                if v == z24.mul_table[a][b]:
                    continue
                mul = [list(row) for row in z24.mul_table]
                mul[a][b] = v
                _assert_matches_oracle(_copy(z24, f"Z24-mul{a}.{b}={v}", mul=mul))
                count += 1
    assert count == 448


def test_random_multi_entry_flips_match_oracle():
    rng = random.Random(20200429)
    bases = [zn_ideal_lattice(n) for n in (12, 24, 30, 36)]
    bases += [boolean_frame(3), chain_frame(4)]
    seen = set()
    for trial in range(400):
        L = rng.choice(bases)
        leq = [list(row) for row in L.leq_table]
        mul = [list(row) for row in L.mul_table]
        for _ in range(rng.randrange(2, 5)):
            i, j = rng.randrange(L.n), rng.randrange(L.n)
            if rng.random() < 0.5:
                leq[i][j] = not leq[i][j]
            else:
                mul[i][j] = rng.randrange(L.n)
        M = _copy(L, f"{L.name}-random{trial}", leq=leq, mul=mul)
        _assert_matches_oracle(M)
        seen.update(validate(M).axiom_names())
    assert seen == set(AXIOMS)  # every scan was compared on a failing witness


def test_validate_stays_cubic():
    # The n^5 validator took minutes at n = 120; this ladder runs in about a
    # second, so the limit leaves room for a slow host and still catches it.
    ladder = [boolean_frame(k) for k in range(8)]
    ladder += [chain_frame(k) for k in range(41)]
    ladder += [zn_ideal_lattice(n) for n in (12, 60, 360, 2520, 5040, 55440)]
    t0 = time.process_time()
    for L in ladder:
        assert validate(L).ok, L.name
    assert time.process_time() - t0 < 15.0


def test_report_is_computed_once_per_lattice(monkeypatch):
    calls = []
    check = lattice_module._check_axioms
    monkeypatch.setattr(
        lattice_module, "_check_axioms", lambda L: calls.append(L.name) or check(L)
    )
    L = zn_ideal_lattice(30)
    first = validate(L)
    assert validate(L) is first and calls == ["Z30"]
    assert validate(zn_ideal_lattice(30)) == first and calls == ["Z30", "Z30"]


def test_validate_command_checks_a_file_once(tmp_path, monkeypatch, capsys):
    calls = []
    check = lattice_module._check_axioms
    monkeypatch.setattr(
        lattice_module, "_check_axioms", lambda L: calls.append(L.name) or check(L)
    )
    path = tmp_path / "z36.lat"
    path.write_text(serialize(zn_ideal_lattice(36)))
    assert main(["validate", "--file", str(path)]) == 0
    assert capsys.readouterr().out == "Z36: ok\n"
    assert calls == ["Z36"]
    assert validate(parse_lattice(path.read_text())).ok and len(calls) == 2
