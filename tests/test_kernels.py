"""The bitset and residual kernels against the naive definitions in oracle.py.

Every witness must equal the oracle's, pair for pair, for every expansion,
phi kind and potency exponent; the lub, glb, residual and radical tables must
equal the oracle's entry for entry.
"""

import random

import pytest

import oracle
from multlat import (
    FiniteMultiplicativeLattice,
    LatticeStructureError,
    boolean_frame,
    chain_frame,
    characterization_A_witness,
    characterization_B_witness,
    compact_pair_violation,
    default_corpus,
    delta_primary_violation,
    make_delta,
    make_phi,
    n_potent_violation,
    omega_power,
    phi_delta_primary_violation,
    phi_primary_violation,
    phi_prime_violation,
    power_stabilization,
    primary_violation,
    prime_violation,
    residual_characterization_A,
    residual_characterization_B,
    zn_ideal_lattice,
)
from multlat.classify import _first_pair, _row_set, characterization_failures
from test_derived import SHAPES
from test_harness import HUNT_CORPORA

DELTA_KINDS = ("d0", "d1")
PHI_KINDS = ("none", "phi0", "phi1", "phi2", "phi3", "phiomega")
POTENCY = (2, 3, 4)


def _lattices():
    out = list(default_corpus().lattices())
    out += [chain_frame(k) for k in range(6)]
    out += [boolean_frame(k) for k in range(5)]
    out.append(zn_ideal_lattice(360))
    return out


LATTICES = _lattices()


@pytest.fixture(params=LATTICES, ids=lambda L: L.name)
def lattice(request):
    return request.param


def test_bound_tables_match_oracle(lattice):
    assert lattice._lub == oracle.bound_table(lattice, upper=True)
    assert lattice._glb == oracle.bound_table(lattice, upper=False)


def test_residual_and_radical_tables_match_oracle(lattice):
    assert lattice._residual_table == oracle.residual_table(lattice)
    assert lattice._radical_table == oracle.radical_table(lattice)


@pytest.mark.parametrize("L", [*LATTICES, *SHAPES, boolean_frame(5)], ids=lambda L: L.name)
def test_witnesses_match_oracle(L):
    deltas = [make_delta(L, k) for k in DELTA_KINDS]
    phis = [make_phi(L, k) for k in PHI_KINDS]
    for p in L.proper_elements:
        assert prime_violation(L, p) == oracle.prime_violation(L, p)
        assert primary_violation(L, p) == oracle.primary_violation(L, p)
        for phi in phis:
            assert phi_prime_violation(L, phi, p) == oracle.phi_prime_violation(L, phi, p)
            assert phi_primary_violation(L, phi, p) == oracle.phi_primary_violation(
                L, phi, p
            )
        for delta in deltas:
            assert delta_primary_violation(L, delta, p) == (
                oracle.delta_primary_violation(L, delta, p)
            )
            for k in POTENCY:
                assert n_potent_violation(L, delta, p, k) == (
                    oracle.n_potent_violation(L, delta, p, k)
                )
            for phi in phis:
                where = (L.name, delta.tag, phi.tag, L.label(p))
                assert phi_delta_primary_violation(L, delta, phi, p) == (
                    oracle.phi_delta_primary_violation(L, delta, phi, p)
                ), where
                assert compact_pair_violation(L, delta, phi, p) == (
                    oracle.compact_pair_violation(L, delta, phi, p)
                ), where


# -- the pair kernel against the full row scan ---------------------------------

# HUNT_CORPORA, SHAPES and chains up to 13 elements, once per name
ROW_SET_LATTICES = list({
    L.name: L
    for L in (
        *(L for make in HUNT_CORPORA.values() for L in make()),
        *SHAPES,
        *(chain_frame(k) for k in range(13)),
    )
}.values())


@pytest.mark.parametrize("L", ROW_SET_LATTICES, ids=lambda L: L.name)
def test_row_set_is_every_join_of_two_join_irreducibles(L):
    ji = L.join_irreducibles
    rows, mask = _row_set(L)
    assert rows == tuple(sorted({L.lub(j, k) for j in ji for k in ji}))
    assert mask == sum(1 << g for g in rows)


@pytest.mark.parametrize(
    "L, size",
    [
        (zn_ideal_lattice(360), 17),
        (zn_ideal_lattice(5040), 29),
        (zn_ideal_lattice(55440), 38),
        (zn_ideal_lattice(720720), 48),
        (boolean_frame(6), 21),
    ],
    ids=lambda x: getattr(x, "name", x),
)
def test_row_set_sizes(L, size):
    assert len(_row_set(L)[0]) == size


def test_row_set_of_a_chain_is_its_join_irreducibles():
    for k in (*range(13), 255):
        L = chain_frame(k)
        assert _row_set(L)[0] == L.join_irreducibles


def test_row_set_names_a_missing_join():
    # 0 < a, b < c, d < e < 1: the residual table exists, since every
    # {x : xy <= t} is all of L or the down-set of e, but the join-irreducibles
    # a and b have no join, and the kernel says so instead of scanning.
    up = {"0": "0abcde1", "a": "acde1", "b": "bcde1", "c": "ce1", "d": "de1",
          "e": "e1", "1": "1"}
    labels = list(up)
    leq = [[y in up[x] for y in labels] for x in labels]
    mul = [[j if i == 6 else i if j == 6 else 0 for j in range(7)] for i in range(7)]
    L = FiniteMultiplicativeLattice("bowtie-under-e", labels, leq, mul, 0, 6)
    assert len(L._residual_table) == 7
    with pytest.raises(LatticeStructureError, match=r"no least upper bound for \(a, b\)"):
        prime_violation(L, 0)


@pytest.mark.parametrize(
    "L", [L for L in ROW_SET_LATTICES if L.n <= 24], ids=lambda L: L.name
)
def test_first_pair_equals_the_full_scan_on_every_argument(L):
    for target in L.proper_elements:
        for excuse in (None, *L.elements()):
            for row_skip in L.elements():
                for col_skip in L.elements():
                    args = target, excuse, row_skip, col_skip
                    assert _first_pair(L, *args) == oracle.first_pair(L, *args), args


@pytest.mark.parametrize(
    "make",
    [
        lambda: zn_ideal_lattice(5040),
        lambda: zn_ideal_lattice(942480),
        lambda: boolean_frame(8),
        lambda: chain_frame(255),
    ],
    ids=["Z5040", "Z942480", "bool256", "chain255"],
)
def test_first_pair_equals_the_full_scan_on_random_arguments(make):
    L = make()
    rng = random.Random(L.n)
    for _ in range(2000):
        args = (
            rng.choice(L.proper_elements),
            rng.choice([None, *L.elements()]),
            rng.randrange(L.n),
            rng.randrange(L.n),
        )
        assert _first_pair(L, *args) == oracle.first_pair(L, *args), args


@pytest.mark.parametrize("L", [*LATTICES, *SHAPES], ids=lambda L: L.name)
def test_order_masks_match_oracle(L):
    assert L.up_sets == oracle.up_sets(L)
    assert L.down_sets == oracle.down_sets(L)


CHARACTERIZED = [
    *default_corpus().lattices(),
    zn_ideal_lattice(5040),
    *(chain_frame(k) for k in range(6)),
    *(boolean_frame(k) for k in range(5)),
    *SHAPES,
]


@pytest.mark.parametrize("L", CHARACTERIZED, ids=lambda L: L.name)
def test_characterization_masks_match_the_literal_scans(L):
    # Each witness is the lowest bit of a per-q failure mask, which the
    # harness reads for T05 and T06; the verdict is that mask being empty.
    for delta in (make_delta(L, k) for k in DELTA_KINDS):
        for phi in (make_phi(L, k) for k in PHI_KINDS):
            fails_a, fails_b = characterization_failures(L, delta, phi)
            for q in L.proper_elements:
                where = (L.name, delta.tag, phi.tag, L.label(q))
                a = oracle.characterization_A_witness(L, delta, phi, q)
                b = oracle.characterization_B_witness(L, delta, phi, q)
                assert (fails_a[q] == 0, fails_b[q] == 0) == (a is None, b is None), where
                assert characterization_A_witness(L, delta, phi, q) == a, where
                assert characterization_B_witness(L, delta, phi, q) == b, where
                assert residual_characterization_A(L, delta, phi, q) == (a is None), where
                assert residual_characterization_B(L, delta, phi, q) == (b is None), where


def test_large_power_is_the_stabilized_power(corpus):
    for L in (*corpus.lattices(), zn_ideal_lattice(360), zn_ideal_lattice(5040)):
        for a in L.elements():
            assert L.power(a, 10**9) == omega_power(L, a)
            for k in range(1, max(6, power_stabilization(L, a) + 2)):
                assert L.power(a, k) == oracle.power(L, a, k)


def _order_flips(L):
    """Copies of L with one entry of the order table flipped; most break an axiom."""
    for i in L.elements():
        for j in L.elements():
            leq = [list(row) for row in L.leq_table]
            leq[i][j] = not leq[i][j]
            yield FiniteMultiplicativeLattice(
                f"{L.name}-flip{i}.{j}", L.labels, leq, L.mul_table, L.bottom, L.top
            )


@pytest.mark.parametrize(
    "base", [chain_frame(3), boolean_frame(2), zn_ideal_lattice(12)], ids=lambda L: L.name
)
def test_bound_table_errors_match_oracle_on_broken_orders(base):
    # The constructor accepts any square boolean table; the bound tables must
    # agree with the oracle on every one, down to the first pair they reject.
    for L in _order_flips(base):
        for upper in (True, False):
            try:
                want = oracle.bound_table(L, upper)
            except LatticeStructureError as exc:
                with pytest.raises(LatticeStructureError) as got:
                    L._bound_table(upper)
                assert str(got.value) == str(exc)
            else:
                assert L._bound_table(upper) == want


def _product_mutants(L):
    """Copies of L with one entry of the product table moved to each other value."""
    for a in L.elements():
        for b in L.elements():
            for v in L.elements():
                if v != L.mul_table[a][b]:
                    mul = [list(row) for row in L.mul_table]
                    mul[a][b] = v
                    yield FiniteMultiplicativeLattice(
                        f"{L.name}-mul{a}.{b}={v}", L.labels, L.leq_table, mul, L.bottom, L.top
                    )


def _cyclic():
    """The unlawful table of test_unlawful_table_names_its_broken_axioms."""
    mul = [[0, 0, 0, 0], [0, 2, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]]
    leq = [[True] * 4, [False, True, False, True], [False, False, True, True],
           [False, False, False, True]]
    return FiniteMultiplicativeLattice("cyclic", ["0", "a", "b", "1"], leq, mul, 0, 3)


def _residuals_or_error(compute):
    try:
        return compute()
    except LatticeStructureError as exc:
        return f"LatticeStructureError: {exc}"


def _residual_differential(lattices):
    # The composed table against every column through the pass along the
    # covers: equal values, or the same error.
    for L in lattices:
        want = _residuals_or_error(lambda: tuple(zip(*L._principal_preimages(zip(*L.mul_table)))))
        assert _residuals_or_error(lambda: L._residual_table) == want, L.name


LADDER = (360, 5040, 55440, 720720, 942480)


def test_composed_residuals_equal_the_cover_pass_on_lawful_lattices():
    _residual_differential([
        *SHAPES,
        *(L for make in HUNT_CORPORA.values() for L in make()),
        *(chain_frame(k) for k in range(41)),
        *(boolean_frame(k) for k in range(9)),
        *(zn_ideal_lattice(n) for n in LADDER),
    ])


@pytest.mark.parametrize(
    "base", [chain_frame(3), boolean_frame(3), zn_ideal_lattice(12)], ids=lambda L: L.name
)
def test_composed_residuals_equal_the_cover_pass_on_unlawful_tables(base):
    _residual_differential([*_product_mutants(base), *_order_flips(base), _cyclic()])


def test_composed_residuals_equal_the_cover_pass_where_the_order_guard_fails():
    # One order flip and one product change together: on one of these the
    # pass along the covers does not reproduce the order, and composing its
    # columns would change a value of the table.
    _residual_differential(
        [M for flipped in _order_flips(chain_frame(3)) for M in _product_mutants(flipped)]
    )


def _pass_columns(L, monkeypatch):
    """How many columns of L's residual table go through the pass along the covers."""
    passed, cover_pass = [], FiniteMultiplicativeLattice._principal_preimages

    def counted(self, images):
        images = list(images)
        passed.append(len(images))
        return cover_pass(self, images)

    monkeypatch.setattr(FiniteMultiplicativeLattice, "_principal_preimages", counted)
    L._residual_table
    monkeypatch.undo()
    return sum(passed)


@pytest.mark.parametrize(
    "L",
    [*(zn_ideal_lattice(n) for n in LADDER), *(boolean_frame(k) for k in range(9))],
    ids=lambda L: L.name,
)
def test_only_the_top_and_the_coatoms_take_the_cover_pass(L, monkeypatch):
    # Every other column of a Zn or boolean frame is composed; a silent
    # fallback to the pass for every column fails here.
    coatoms = {a for a, b in L.covers if b == L.top}
    assert _pass_columns(L, monkeypatch) == 1 + len(coatoms)


def test_every_column_of_a_chain_takes_the_cover_pass(monkeypatch):
    # xb = x ^ b, and cj = b for an upper cover c of b only at j = b
    for k in (1, 5, 40):
        assert _pass_columns(chain_frame(k), monkeypatch) == k + 1
