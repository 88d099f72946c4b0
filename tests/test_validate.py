"""The bitset validator against the naive one in oracle.py, its scale, and its cache.

``validate`` must return exactly the report of ``oracle.naive_validate``: the
same axiom names, in the same order, each with the same lexicographically
first witness, on every mutant below.  The mutants break the order, the
bounds and the multiplication one or several entries at a time.  A mutant
that keeps the order and commutativity reaches the proofs from
join-irreducibles, so a proof that passed where the full scan finds a
witness would show here as a missing failure.
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
from test_derived import SHAPES

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


def _mul_mutants(L):
    """Every one-entry change of the product table, then every symmetric
    two-entry one, which keeps commutativity."""
    for a in L.elements():
        for b in L.elements():
            for v in L.elements():
                if v == L.mul_table[a][b]:
                    continue
                for both in (False, True) if a < b else (False,):
                    mul = [list(row) for row in L.mul_table]
                    mul[a][b] = v
                    if both:
                        mul[b][a] = v
                    yield _copy(L, f"{L.name}-mul{a}.{b}={v}{'-both' if both else ''}", mul=mul)


@pytest.mark.parametrize(
    "base", [SHAPES[0], boolean_frame(3)], ids=lambda L: L.name
)
def test_every_mul_mutant_matches_oracle(base):
    # SHAPES[0] is N5 with a top adjoined: not modular, so not distributive.
    assert oracle.is_modular(base) == (base is not SHAPES[0])
    failed = set()
    for M in _mul_mutants(base):
        _assert_matches_oracle(M)
        failed.update(validate(M).axiom_names())
    assert {"mul-associative", "mul-join-distributive"} <= failed


def test_associativity_is_proved_only_where_bottom_annihilates():
    # Commutative and distributive, and (ab)c = a(bc) for the join-irreducible
    # a and b (1 and 2), but 0*0 = 1: (0*0)*1 = 1*1 = 2 and 0*(0*1) = 0*1 = 1.
    M = _copy(chain_frame(2), "chain2-no-annihilation", mul=[[1, 1, 2], [1, 2, 2], [2, 2, 2]])
    _assert_matches_oracle(M)
    assert validate(M).failures[0] == ("mul-associative", (0, 0, 1))


def test_meets_are_built_only_where_an_earlier_axiom_fails(monkeypatch):
    built = []
    bounds = FiniteMultiplicativeLattice._partial_bounds
    monkeypatch.setattr(
        FiniteMultiplicativeLattice, "_partial_bounds",
        lambda L, upper: built.append((L.name, upper)) or bounds(L, upper),
    )
    for L in (zn_ideal_lattice(30), SHAPES[1], chain_frame(3)):
        assert validate(L).ok
    assert ("Z30", False) not in built and ("Z30", True) in built
    assert not any(upper is False for _, upper in built)
    bowtie = _bowtie()
    _assert_matches_oracle(bowtie)
    assert validate(bowtie).axiom_names()[:2] == ("pairwise-join-exists", "pairwise-meet-exists")
    assert built.count(("bowtie", False)) == 1


def _bowtie():
    # 0 < a, b < c, d < 1: a and b have two minimal upper bounds, c and d two
    # maximal lower bounds; every product of two elements below 1 is 0
    up = {"0": "0abcd1", "a": "acd1", "b": "bcd1", "c": "c1", "d": "d1", "1": "1"}
    labels = list(up)
    leq = [[y in up[x] for y in labels] for x in labels]
    mul = [[j if i == 5 else i if j == 5 else 0 for j in range(6)] for i in range(6)]
    return FiniteMultiplicativeLattice("bowtie", labels, leq, mul, 0, 5)


def test_missing_bounds_are_marked_where_the_order_has_none():
    # -1 in the partial tables at exactly the pairs with no unique bound
    bowtie = _bowtie()
    for upper, table in ((True, bowtie._partial_lub), (False, bowtie._partial_glb)):
        want = [
            [-1 if (k := oracle.bound(bowtie, i, j, upper)) is None else k for j in range(6)]
            for i in range(6)
        ]
        assert [list(row) for row in table] == want
        assert sum(row.count(-1) for row in want) == 2  # (a, b) and (b, a), or (c, d) and (d, c)


def test_boolean_512_validates_in_well_under_the_scan_time():
    # Each scan is cubic: about 10 s of raw CPU here at 512 elements, where
    # the proofs from the 9 atoms take about 0.4 s.
    L = boolean_frame(9)
    L.up_sets, L.down_sets
    t0 = time.process_time()
    assert validate(L).ok
    assert time.process_time() - t0 < 4.0


def test_chain_validates_no_slower_than_its_full_scans(monkeypatch):
    # Every element of a chain but the bottom is join-irreducible, so the
    # proofs compare as many rows as the scans they replace: validate must
    # read no more rows than exhausting the two full scans did.  Each scan
    # compares a row against every column, so a row read counts its column
    # count; counted rather than timed, so a loaded host cannot fail it.
    read = []

    def counted(scan, rows_at, cols_at):
        def counting(*args):
            args = list(args)
            rows, width = args[rows_at], len(args[cols_at])

            def each_row():
                for row in rows:
                    read.append(width)
                    yield row

            args[rows_at] = each_row()
            return scan(*args)

        return counting

    for name, rows_at, cols_at in (
        ("_associativity_breaks", 1, 2),  # (mul, rows, cols)
        ("_distributivity_breaks", 2, 3),  # (mul, lub, rows, cols)
        ("_monotonicity_breaks", 0, 1),  # (mul, up): every row of mul
    ):
        monkeypatch.setattr(
            lattice_module, name, counted(getattr(lattice_module, name), rows_at, cols_at)
        )
    L = chain_frame(255)
    assert validate(L).ok
    # distributivity on the 255 join-irreducible columns and associativity
    # on their 255 x 255 pairs: 130,305 against the full scans' 2 x 256^2
    assert 0 < sum(read) <= 2 * L.n * L.n, sum(read)


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
