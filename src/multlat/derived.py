"""Residuation, radicals, power meets, and element/structure profiles."""

from __future__ import annotations

from typing import NamedTuple

from .lattice import FiniteMultiplicativeLattice, _bits, _gather, _per_lattice


def residual(L: FiniteMultiplicativeLattice, a: int, b: int) -> int:
    """(a : b), the largest x with x*b <= a."""
    return L._residual_table[a][b]


def omega_power(L: FiniteMultiplicativeLattice, a: int) -> int:
    """The stabilized power of a: meet over all a^k, k >= 1."""
    return L._power_chains[a][-1]


def power_stabilization(L: FiniteMultiplicativeLattice, a: int) -> int:
    """Least s >= 1 with a^s = a^(s+1)."""
    return len(L._power_chains[a])


def radical(L: FiniteMultiplicativeLattice, a: int) -> int:
    """sqrt(a): join of every x some power of which lies below a."""
    return L._radical_table[a]


def _idempotent_violation(L: FiniteMultiplicativeLattice, a: int) -> tuple[int, int] | None:
    """(a, a^2) unless a^2 = a: the idempotent flag's witness in reports and hunts."""
    square = L.mul(a, a)
    return None if square == a else (a, square)


def is_idempotent(L: FiniteMultiplicativeLattice, a: int) -> bool:
    return _idempotent_violation(L, a) is None


def is_nilpotent(L: FiniteMultiplicativeLattice, a: int) -> bool:
    """Some power of a equals bottom."""
    return omega_power(L, a) == L.bottom


def is_zero_divisor(L: FiniteMultiplicativeLattice, a: int) -> bool:
    """a != 0 and ab = 0 for some b != 0."""
    if a == L.bottom:
        return False
    return any(
        b != L.bottom and L.mul(a, b) == L.bottom for b in range(L.n)
    )


def is_meet_principal(L: FiniteMultiplicativeLattice, e: int) -> bool:
    """a ^ be = ((a:e) ^ b)e for all a, b: one row comparison per a."""
    glb, res, me = L._glb, L._residual_table, L.mul_table[e]
    by_e = _gather(me)
    return all(by_e(glb[a]) == _gather(glb[res[a][e]])(me) for a in range(L.n))


def is_join_principal(L: FiniteMultiplicativeLattice, e: int) -> bool:
    """(ae v b):e = (b:e) v a for all a, b: one row comparison per a."""
    lub, me = L._lub, L.mul_table[e]
    re = tuple(row[e] for row in L._residual_table)
    by_re = _gather(re)
    return all(_gather(lub[me[a]])(re) == by_re(lub[a]) for a in range(L.n))


def is_principal(L: FiniteMultiplicativeLattice, e: int) -> bool:
    return is_meet_principal(L, e) and is_join_principal(L, e)


def has_restricted_cancellation(L: FiniteMultiplicativeLattice, a: int) -> bool:
    """ab = ac != 0 implies b = c: the nonzero products of a are distinct."""
    nonzero = [x for x in L.mul_table[a] if x != L.bottom]
    return len(set(nonzero)) == len(nonzero)


def is_maximal(L: FiniteMultiplicativeLattice, a: int) -> bool:
    """Proper, with no proper element strictly above."""
    return a != L.top and L.up_sets[a] == 1 << a | 1 << L.top


def compact_elements(L: FiniteMultiplicativeLattice) -> tuple[int, ...]:
    """Every element of a finite lattice is compact.

    Any cover of x by a join is a finite cover already, so the whole carrier
    qualifies; quantifications over compact elements may range over all of L.
    """
    return tuple(range(L.n))


class ElementProfile(NamedTuple):
    element: int
    idempotent: bool
    nilpotent: bool
    zero_divisor: bool
    principal: bool
    restricted_cancellation: bool
    power_meet: int
    maximal: bool


def element_profile(L: FiniteMultiplicativeLattice, a: int) -> ElementProfile:
    return ElementProfile(
        element=a,
        idempotent=is_idempotent(L, a),
        nilpotent=is_nilpotent(L, a),
        zero_divisor=is_zero_divisor(L, a),
        principal=is_principal(L, a),
        restricted_cancellation=has_restricted_cancellation(L, a),
        power_meet=omega_power(L, a),
        maximal=is_maximal(L, a),
    )


class StructureProfile(NamedTuple):
    modular: bool
    principally_generated: bool
    noether: bool
    domain: bool
    quasi_local: bool
    local_noether: bool
    krull: bool
    maximal_elements: tuple[int, ...]


def is_modular(L: FiniteMultiplicativeLattice) -> bool:
    """a <= c implies a v (b ^ c) = (a v b) ^ c: one row comparison per a <= c."""
    lub, glb = L._lub, L._glb
    return all(
        _gather(glb[c])(lub[a]) == _gather(lub[a])(glb[c])
        for a in range(L.n)
        for c in _bits(L.up_sets[a])
    )


def is_principally_generated(L: FiniteMultiplicativeLattice) -> bool:
    """Every element is the join of the principal elements below it.

    Equivalently, every join-irreducible element (one with exactly one lower
    cover) is principal.  If so, every element is a join of principal elements,
    since in a finite lattice it is the join of the join-irreducibles below it.
    Conversely, a join-irreducible j that is the join of some elements below it
    must be one of them, as the others all lie below j's one lower cover.
    Assumes a lattice that passes ``validate``.
    """
    return all(is_principal(L, j) for j in L.join_irreducibles)


def maximal_elements(L: FiniteMultiplicativeLattice) -> tuple[int, ...]:
    return tuple(a for a in range(L.n) if is_maximal(L, a))


@_per_lattice
def structure_profile(L: FiniteMultiplicativeLattice) -> StructureProfile:
    """Whole-lattice classification flags.

    noether means modular and principally generated (the ascending chain
    condition is automatic at finite scale); local_noether additionally
    requires a unique maximal prime element; krull means the power meet of
    every proper element is bottom.

    The maximal primes are exactly the maximal elements, so local_noether is
    noether and quasi_local.  A maximal m is prime: if ab <= m and a !<= m then
    a v m = 1, so b = b(a v m) = ab v bm <= m.  Every prime lies below some
    maximal element, which is prime, so a prime with no prime above it is
    maximal.  Assumes a lattice that passes ``validate``.
    """
    modular = is_modular(L)
    pg = is_principally_generated(L)
    noether = modular and pg
    domain = not any(is_zero_divisor(L, a) for a in range(L.n))
    maxes = maximal_elements(L)
    quasi_local = len(maxes) == 1
    krull = all(omega_power(L, a) == L.bottom for a in L.proper_elements)
    return StructureProfile(
        modular=modular,
        principally_generated=pg,
        noether=noether,
        domain=domain,
        quasi_local=quasi_local,
        local_noether=noether and quasi_local,
        krull=krull,
        maximal_elements=maxes,
    )
