"""Residuals, radicals, power chains, and element/lattice profiles.

The radical gets two independent oracles: a brute-force "some power lands
below" join computed with nothing but mul, and the squarefree-kernel formula
for divisor lattices.  The principal, restricted-cancellation, modularity and
structure flags are checked against the pair loops in oracle.py, on Zn,
chains, boolean frames and six non-distributive shapes built here from
explicit tables.
"""

import pytest

import oracle
from conftest import time_limit
from multlat import (
    FiniteMultiplicativeLattice,
    StructureProfile,
    boolean_frame,
    chain_frame,
    compact_elements,
    default_corpus,
    element_profile,
    is_idempotent,
    is_nilpotent,
    is_zero_divisor,
    maximal_elements,
    omega_power,
    power_stabilization,
    radical,
    residual,
    structure_profile,
    validate,
    zn_ideal_lattice,
)
from multlat.derived import (
    has_restricted_cancellation,
    is_join_principal,
    is_maximal,
    is_meet_principal,
    is_modular,
    is_principal,
    is_principally_generated,
)


def _brute_radical(L, a):
    below = []
    for x in L.elements():
        powers = {L.power(x, k) for k in range(1, L.n + 2)}
        if any(L.leq(p, a) for p in powers):
            below.append(x)
    return L.join(below)


def _squarefree_kernel(d):
    out = 1
    for p in range(2, d + 1):
        if d % p == 0 and all(p % q for q in range(2, p)):
            out *= p
    return out


def test_residual_frozen_values(z8):
    i = z8.index_of
    assert residual(z8, i("(4)"), i("(2)")) == i("(2)")
    for a in z8.elements():
        assert residual(z8, a, z8.top) == a
        assert residual(z8, z8.top, a) == z8.top


def test_residual_is_the_greatest_solution(corpus):
    for L in corpus.lattices():
        for a in L.elements():
            for b in L.elements():
                x = residual(L, a, b)
                assert L.leq(L.mul(x, b), a)
                for y in L.elements():
                    if L.leq(L.mul(y, b), a):
                        assert L.leq(y, x)


def test_radical_frozen_values(z24):
    i = z24.index_of
    assert radical(z24, i("(4)")) == i("(2)")
    assert radical(z24, i("(0)")) == i("(6)")
    assert radical(z24, z24.top) == z24.top


def test_radical_matches_brute_force(corpus):
    for L in corpus.lattices():
        for a in L.elements():
            assert radical(L, a) == _brute_radical(L, a)


def test_radical_matches_squarefree_kernel_on_divisor_lattices():
    for n in (8, 12, 16, 24, 27, 30, 36, 100):
        L = zn_ideal_lattice(n)
        label = lambda v: "(0)" if v == n else f"({v})"
        for d in (d for d in range(2, n + 1) if n % d == 0):
            expect = _squarefree_kernel(d)
            assert radical(L, L.index_of(label(d))) == L.index_of(label(expect))


def test_radical_closure_laws(corpus):
    for L in corpus.lattices():
        for a in L.elements():
            ra = radical(L, a)
            assert L.leq(a, ra)
            assert radical(L, ra) == ra
            for b in L.elements():
                if L.leq(a, b):
                    assert L.leq(ra, radical(L, b))
                assert radical(L, L.mul(a, b)) == radical(L, L.glb(a, b))


def test_omega_power_frozen(z24, z30):
    assert omega_power(z24, z24.index_of("(2)")) == z24.index_of("(8)")
    assert omega_power(z30, z30.index_of("(6)")) == z30.index_of("(6)")
    assert omega_power(z24, z24.top) == z24.top


def test_power_stabilization(z24, z30, corpus):
    assert power_stabilization(z24, z24.index_of("(2)")) == 3
    assert power_stabilization(z30, z30.index_of("(6)")) == 1
    for L in corpus.lattices():
        for a in L.elements():
            k = power_stabilization(L, a)
            assert k >= 1
            assert L.power(a, k) == L.power(a, k + 1) == omega_power(L, a)


def test_some_power_below_iff_omega_below(corpus):
    for L in corpus.lattices():
        for x in L.elements():
            stab = power_stabilization(L, x)
            for a in L.elements():
                some = any(L.leq(L.power(x, k), a) for k in range(1, stab + 1))
                assert some == L.leq(omega_power(L, x), a)


def test_element_flags_frozen(z8, z24, z30):
    six = z30.index_of("(6)")
    assert is_idempotent(z30, six)
    assert not is_nilpotent(z30, six)
    assert is_zero_divisor(z30, six)

    four = z8.index_of("(4)")
    assert not is_idempotent(z8, four)
    assert is_nilpotent(z8, four)
    assert is_zero_divisor(z8, four)
    assert is_nilpotent(z8, z8.index_of("(2)"))

    three = z24.index_of("(3)")
    assert is_idempotent(z24, three)
    assert not is_nilpotent(z24, three)


def test_element_profile_agrees_with_predicates(z8):
    four = z8.index_of("(4)")
    prof = element_profile(z8, four)
    assert prof.element == four
    assert prof.idempotent == is_idempotent(z8, four)
    assert prof.nilpotent == is_nilpotent(z8, four)
    assert prof.zero_divisor == is_zero_divisor(z8, four)
    assert prof.principal == is_principal(z8, four)
    assert prof.restricted_cancellation == has_restricted_cancellation(z8, four)
    assert prof.power_meet == omega_power(z8, four)
    assert prof.maximal == is_maximal(z8, four)


def test_maximal_elements(z8, z30):
    assert tuple(z8.label(a) for a in maximal_elements(z8)) == ("(2)",)
    assert tuple(z30.label(a) for a in maximal_elements(z30)) == ("(2)", "(3)", "(5)")
    assert not is_maximal(z8, z8.top)


def test_structure_profiles_frozen(z8, z24, z30):
    p8 = structure_profile(z8)
    assert (p8.modular, p8.principally_generated, p8.noether) == (True, True, True)
    assert not p8.domain
    assert p8.quasi_local and p8.local_noether and p8.krull
    assert p8.maximal_elements == (z8.index_of("(2)"),)

    p30 = structure_profile(z30)
    assert p30.noether
    assert not p30.quasi_local and not p30.local_noether and not p30.krull
    assert len(p30.maximal_elements) == 3

    assert not structure_profile(z24).quasi_local

    two_chain = structure_profile(chain_frame(1))
    assert two_chain.domain and two_chain.local_noether and two_chain.krull


def test_chains_beyond_two_elements_are_not_principally_generated():
    L = chain_frame(3)
    assert not structure_profile(L).principally_generated
    principal = tuple(L.label(a) for a in L.elements() if is_principal(L, a))
    assert principal == ("0", "3")


def test_every_element_is_compact(corpus):
    for L in corpus.lattices():
        assert compact_elements(L) == tuple(range(L.n))


def test_restricted_cancellation_edge_cases(corpus):
    for L in corpus.lattices():
        assert has_restricted_cancellation(L, L.top)
        # no proper nonzero non-nilpotent element ever satisfies it at finite
        # scale: its power chain would stabilize at a nonzero idempotent e
        # with e*e = e*top, forcing e = top
        for q in L.proper_elements:
            if q != L.bottom and not is_nilpotent(L, q):
                assert not has_restricted_cancellation(L, q)


# -- structure flags against the oracle ------------------------------------------

# (labels, covers) of a bounded lattice, bottom first; "ac" is the cover a < c
N5 = "0abc1", ("0a", "ac", "c1", "0b", "b1")
M3 = "0abc1", ("0a", "0b", "0c", "a1", "b1", "c1")


def _adjoin_top(name, shape):
    """The bounded lattice (labels, covers) with a new top T; x*y = bottom below T."""
    labels, covers = shape
    labels = (*labels, "T")
    n, pos = len(labels), {lab: i for i, lab in enumerate(labels)}
    leq = [[i == j or j == n - 1 for j in range(n)] for i in range(n)]
    leq[0] = [True] * n
    for _ in range(n):
        for lo, hi in covers:
            a, b = pos[lo], pos[hi]
            leq[a] = [x or y for x, y in zip(leq[a], leq[b])]
    top = n - 1
    mul = [[j if i == top else i if j == top else 0 for j in range(n)] for i in range(n)]
    return FiniteMultiplicativeLattice(name, labels, leq, mul, 0, top)


def _product(L1, L2):
    """Componentwise order and multiplication on pairs (x, y), x-major."""
    pairs = [(x, y) for x in L1.elements() for y in L2.elements()]
    index = {xy: k for k, xy in enumerate(pairs)}
    return FiniteMultiplicativeLattice(
        f"{L1.name}x{L2.name}",
        [f"{L1.label(x)},{L2.label(y)}" for x, y in pairs],
        [[L1.leq(x, u) and L2.leq(y, v) for u, v in pairs] for x, y in pairs],
        [[index[L1.mul(x, u), L2.mul(y, v)] for u, v in pairs] for x, y in pairs],
        index[L1.bottom, L2.bottom],
        index[L1.top, L2.top],
    )


def _shapes():
    n5, m3 = _adjoin_top("N5+", N5), _adjoin_top("M3+", M3)
    z4 = zn_ideal_lattice(4)
    return [
        n5,
        m3,
        _product(chain_frame(2), boolean_frame(2)),
        _product(zn_ideal_lattice(8), m3),
        _product(n5, z4),
        _product(z4, zn_ideal_lattice(9)),
    ]


SHAPES = _shapes()
PROFILED = [
    *default_corpus().lattices(),
    zn_ideal_lattice(360),
    zn_ideal_lattice(5040),
    *(chain_frame(k) for k in range(6)),
    *(boolean_frame(k) for k in range(5)),
    *SHAPES,
]


@pytest.mark.parametrize("L", SHAPES, ids=lambda L: L.name)
def test_shapes_are_multiplicative_lattices(L):
    assert validate(L).ok, validate(L).describe(L)


@pytest.mark.parametrize("L", PROFILED, ids=lambda L: L.name)
def test_structure_flags_match_oracle(L):
    for e in L.elements():
        assert is_meet_principal(L, e) == oracle.is_meet_principal(L, e), L.label(e)
        assert is_join_principal(L, e) == oracle.is_join_principal(L, e), L.label(e)
        assert is_maximal(L, e) == oracle.is_maximal(L, e), L.label(e)
        assert has_restricted_cancellation(L, e) == oracle.has_restricted_cancellation(
            L, e
        ), L.label(e)
    assert is_modular(L) == oracle.is_modular(L)
    assert is_principally_generated(L) == oracle.is_principally_generated(L)
    assert structure_profile(L) == oracle.structure_profile(L)


def test_profiled_lattices_cover_every_branch():
    profiles = [structure_profile(L) for L in PROFILED]
    assert any(not p.modular for p in profiles)
    assert any(not p.principally_generated for p in profiles)
    assert any(p.noether and not p.quasi_local for p in profiles)
    assert any(p.local_noether for p in profiles)


def test_structure_profile_of_z720720_is_fast():
    with time_limit(5):
        L = zn_ideal_lattice(720720)
        prof = structure_profile(L)
    maxes = tuple(L.label(a) for a in prof.maximal_elements)
    assert maxes == ("(2)", "(3)", "(5)", "(7)", "(11)", "(13)")
    assert prof == StructureProfile(
        modular=True,
        principally_generated=True,
        noether=True,
        domain=False,
        quasi_local=False,
        local_noether=False,
        krull=False,
        maximal_elements=prof.maximal_elements,
    )
