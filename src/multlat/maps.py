"""Unary maps on a lattice: expansion functions, phi maps, isomorphisms.

An expansion (delta) is inflationary and monotone; the stock kinds are d0
(identity) and d1 (radical).  A phi map sends each element somewhere at or
below itself; the stock chain is phi0 (constant bottom) <= phiomega <= ...
<= phi3 <= phi2 <= phi1 (identity), plus a flagged "none" kind that excuses
nothing, making phi-delta-primary degenerate to delta-primary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from operator import getitem

from .derived import omega_power, radical
from .lattice import FiniteMultiplicativeLattice, _gather


class MapValidationError(ValueError):
    """A table fails the defining inequalities of its map kind."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class UnaryMap:
    """A total map on the carrier, stored as an index table."""

    lattice: FiniteMultiplicativeLattice
    table: tuple[int, ...]
    tag: str

    def apply(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def monotone(self) -> bool:
        """a <= b implies g(a) <= g(b); computed once per map object."""
        return _order_break(self.lattice, self.table) is None


@dataclass(frozen=True)
class Expansion(UnaryMap):
    kind: str  # d0 | d1 | table


@dataclass(frozen=True)
class PhiMap(UnaryMap):
    kind: str  # none | phi0 | phi1 | phi2 | phin | phiomega | table

    @property
    def none(self) -> bool:
        """True for the kind that excuses no product at all."""
        return self.kind == "none"


def _order_break(L: FiniteMultiplicativeLattice, t) -> tuple[int, int] | None:
    """First (a, b), row-major, with a <= b but t(a) !<= t(b); None when t is monotone."""
    leq = L.leq_table
    for a, row in enumerate(leq):
        image_row = leq[t[a]]
        for b, below in enumerate(row):
            if below and not image_row[t[b]]:
                return a, b
    return None


def _check_table(L: FiniteMultiplicativeLattice, table) -> tuple[int, ...]:
    table = tuple(int(v) for v in table)
    if len(table) != L.n or any(not 0 <= v < L.n for v in table):
        raise MapValidationError("map table does not index the carrier", ())
    return table


def make_delta(
    L: FiniteMultiplicativeLattice,
    kind: str,
    table=None,
    tag: str | None = None,
) -> Expansion:
    """Build an expansion function: d0 (identity), d1 (radical), or a table.

    Table kinds are validated: a <= delta(a) everywhere and a <= b implies
    delta(a) <= delta(b); the first violating pair is reported.
    """
    kind = kind.strip().lower()
    if kind == "d0":
        return Expansion(L, tuple(range(L.n)), tag or "d0", "d0")
    if kind == "d1":
        return Expansion(L, tuple(radical(L, a) for a in range(L.n)), tag or "d1", "d1")
    if kind != "table":
        raise ValueError(f"unknown expansion kind {kind!r}")
    t = _check_table(L, table)
    for a in range(L.n):
        if not L.leq(a, t[a]):
            raise MapValidationError(
                f"not inflationary at {L.label(a)}", (a, t[a])
            )
    if (pair := _order_break(L, t)) is not None:
        a, b = pair
        raise MapValidationError(f"not monotone at ({L.label(a)}, {L.label(b)})", pair)
    return Expansion(L, t, tag or "table", "table")


_PHI_N = re.compile(r"^phi(\d+)$")


def make_phi(
    L: FiniteMultiplicativeLattice,
    kind: str,
    k: int | None = None,
    table=None,
    tag: str | None = None,
) -> PhiMap:
    """Build a phi map.

    Kinds: none, phi0, phi1, phi2, phin (with k > 2), phiomega, table.
    Shorthand "phi5" is accepted for phin with k=5.  Table kinds are
    normalized pointwise by meeting with the identity so phi(p) <= p holds.
    """
    kind = kind.strip().lower()
    m = _PHI_N.match(kind)
    if m and int(m.group(1)) > 2:
        kind, k = "phin", int(m.group(1))
    if kind == "none":
        return PhiMap(L, (L.bottom,) * L.n, tag or "none", "none")
    if kind == "phi0":
        return PhiMap(L, (L.bottom,) * L.n, tag or "phi0", "phi0")
    if kind == "phi1":
        return PhiMap(L, tuple(range(L.n)), tag or "phi1", "phi1")
    if kind == "phi2":
        return PhiMap(L, tuple(L.power(a, 2) for a in range(L.n)), tag or "phi2", "phi2")
    if kind == "phin":
        if k is None or k <= 2:
            raise ValueError("phin requires an exponent k > 2")
        return PhiMap(L, tuple(L.power(a, k) for a in range(L.n)), tag or f"phi{k}", "phin")
    if kind == "phiomega":
        return PhiMap(
            L, tuple(omega_power(L, a) for a in range(L.n)), tag or "phiomega", "phiomega"
        )
    if kind != "table":
        raise ValueError(f"unknown phi kind {kind!r}")
    t = _check_table(L, table)
    t = tuple(L.glb(a, t[a]) for a in range(L.n))
    return PhiMap(L, t, tag or "table", "table")


def map_leq(g1: UnaryMap, g2: UnaryMap) -> bool:
    """Pointwise comparison g1(a) <= g2(a) on a shared lattice.

    The flagged "none" phi kind sits strictly below every real map: it
    compares below anything, and nothing but none compares below it.
    """
    L = g1.lattice
    if g2.lattice is not L and g2.lattice != L:  # identity first: no table compare
        raise ValueError("map_leq requires maps on the same lattice")
    if getattr(g1, "none", False):
        return True
    if getattr(g2, "none", False):
        return False
    # row g1(a) of the order table, read at g2(a), for every a in one C-level pass
    return all(map(getitem, map(L.leq_table.__getitem__, g1.table), g2.table))


def is_monotone(g: UnaryMap) -> bool:
    return g.monotone


@dataclass(frozen=True)
class Isomorphism:
    """An order- and multiplication-preserving bijection between lattices."""

    source: FiniteMultiplicativeLattice
    target: FiniteMultiplicativeLattice
    forward: tuple[int, ...]
    inverse: tuple[int, ...]

    def apply(self, a: int) -> int:
        return self.forward[a]

    def pull_back(self, b: int) -> int:
        return self.inverse[b]

    def describe(self) -> str:
        pairs = ", ".join(
            f"{self.source.label(i)}->{self.target.label(self.forward[i])}"
            for i in range(self.source.n)
        )
        return f"{self.source.name}->{self.target.name}[{pairs}]"


def _signature(L: FiniteMultiplicativeLattice, i: int) -> tuple[int, int, int, int]:
    """Isomorphism invariants: |down(i)|, |up(i)|, |down(i^2)|, i idempotent."""
    down, square = L.down_sets, L.mul(i, i)
    return (down[i].bit_count(), L.up_sets[i].bit_count(), down[square].bit_count(),
            int(square == i))


def enumerate_isomorphisms(
    L1: FiniteMultiplicativeLattice, L2: FiniteMultiplicativeLattice
) -> tuple[Isomorphism, ...]:
    """All order+multiplication isomorphisms L1 -> L2, sorted by forward table.

    An isomorphism sends join-irreducibles onto join-irreducibles and is fixed
    by their images: f(x) is the join of f(j) over the join-irreducibles
    j <= x.  So the search backtracks over those images only, each with the
    signature of its preimage and in the same order relation to the images
    placed so far.  A complete assignment is kept when f is a bijection, its
    order rows match, and it preserves the products of join-irreducible pairs:
    f then preserves joins, and products distribute over joins.  Assumes
    lattices that pass ``validate``.
    """
    n, ji1, ji2 = L1.n, L1.join_irreducibles, L2.join_irreducibles
    if L2.n != n or len(ji1) != len(ji2):
        return ()
    leq1, leq2, mul2 = L1.leq_table, L2.leq_table, L2.mul_table
    sig1 = [_signature(L1, i) for i in ji1]
    sig2 = [_signature(L2, j) for j in ji2]
    candidates = [[j for j, s in zip(ji2, sig2) if s == sig] for sig in sig1]
    below = [[k for k, j in enumerate(ji1) if leq1[j][x]] for x in range(n)]
    pairs = [(k, m, L1.mul(ji1[k], ji1[m])) for k in range(len(ji1)) for m in range(k + 1)]
    found: list[tuple[int, ...]] = []
    image: list[int] = []

    def keep_if_isomorphism():
        f = tuple(L2.join(map(image.__getitem__, ks)) for ks in below)
        by_f = _gather(f)
        if (
            len(set(f)) == n  # implied by the order rows, and cheaper
            and all(f[xy] == mul2[image[x]][image[y]] for x, y, xy in pairs)
            and all(by_f(leq2[b]) == row for b, row in zip(f, leq1))
        ):
            found.append(f)

    def fits(j):
        i = ji1[len(image)]
        # a repeated image j2 == j fails this: it would need i <= i2 <= i
        return all(
            leq1[i][i2] == leq2[j][j2] and leq1[i2][i] == leq2[j2][j]
            for i2, j2 in zip(ji1, image)
        )

    # Depth-first with an explicit stack, so the depth (one level per
    # join-irreducible) is not bounded by the recursion limit: untried[k]
    # yields the candidates left for ji1[k], and image holds ji1[:k]'s images.
    untried = [filter(fits, candidates[0])] if ji1 else []
    if not ji1:
        keep_if_isomorphism()
    while untried:
        j = next(untried[-1], None)
        if j is None:
            untried.pop()
            if image:
                image.pop()
            continue
        image.append(j)
        if len(image) == len(ji1):
            keep_if_isomorphism()
            image.pop()
        else:
            untried.append(filter(fits, candidates[len(image)]))
    isos = []
    for f in sorted(found):
        inv = [0] * n
        for a, b in enumerate(f):
            inv[b] = a
        isos.append(Isomorphism(L1, L2, f, tuple(inv)))
    return tuple(isos)


def global_property_witness(
    f: Isomorphism, beta_source: UnaryMap, beta_target: UnaryMap
) -> int | None:
    """First target element a with beta_source(f^-1(a)) != f^-1(beta_target(a)).

    By commutativity of the diagram this is equivalent to the forward form
    f(beta_source(q)) = beta_target(f(q)) for all source q.
    """
    for g, L in ((beta_source, f.source), (beta_target, f.target)):
        if g.lattice is not L and g.lattice != L:
            raise ValueError("maps must live on the isomorphism's source and target")
    for a in range(f.target.n):
        if beta_source.table[f.inverse[a]] != f.inverse[beta_target.table[a]]:
            return a
    return None


def check_global_property(
    f: Isomorphism, beta_source: UnaryMap, beta_target: UnaryMap
) -> bool:
    return global_property_witness(f, beta_source, beta_target) is None


def parse_map_table(text: str, L: FiniteMultiplicativeLattice) -> tuple[int, ...]:
    """Parse a unary-map table: one "<from> <to>" label pair per line.

    Blank lines and '#' comments are ignored; every carrier element must be
    assigned exactly once.
    """
    table: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<from> <to>', got {raw!r}")
        src, dst = (L.index_of(p) for p in parts)
        if src in table:
            raise ValueError(f"line {lineno}: duplicate entry for {parts[0]}")
        table[src] = dst
    missing = [L.label(i) for i in range(L.n) if i not in table]
    if missing:
        raise ValueError(f"map table missing entries for: {', '.join(missing)}")
    return tuple(table[i] for i in range(L.n))
