"""The bitset and residual kernels against the naive definitions in oracle.py.

Every witness must equal the oracle's, pair for pair, for every expansion,
phi kind and potency exponent; the lub, glb, residual and radical tables must
equal the oracle's entry for entry.
"""

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
from multlat.classify import characterization_failures
from test_derived import SHAPES

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


def test_witnesses_match_oracle(lattice):
    L = lattice
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
