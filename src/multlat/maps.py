"""Unary maps on a lattice: expansion functions, phi maps, isomorphisms.

An expansion (delta) is inflationary and monotone; the stock kinds are d0
(identity) and d1 (radical).  A phi map sends each element somewhere at or
below itself; the stock chain is phi0 (constant bottom) <= phiomega <= ...
<= phi3 <= phi2 <= phi1 (identity), plus a flagged "none" kind that excuses
nothing, making phi-delta-primary degenerate to delta-primary.

A map's identity on a lattice is its key (``key_on``), a small int per
distinct table, and every per-lattice store of facts about maps is keyed by
keys, never by tables or tags.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple

from .lattice import FiniteMultiplicativeLattice, _leq_mask, _per_lattice

IDENTITY = 0  # the key of the identity table on every lattice


class MapValidationError(ValueError):
    """A table fails the defining inequalities of its map kind."""

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


class UnaryMap:
    """A total map on the carrier, stored as an index table.

    ``kind`` is the stock kind the map was built as, None for a bare map.
    Maps compare and hash by class and fields, so an Expansion never equals a
    PhiMap with the same table; ``key`` and ``monotone`` are kept on the
    object once read.
    """

    def __init__(
        self, lattice: FiniteMultiplicativeLattice, table: tuple[int, ...], tag: str, kind=None
    ):
        self.lattice, self.table, self.tag, self.kind = lattice, table, tag, kind

    def _value(self) -> tuple:
        return self.lattice, self.table, self.tag, self.kind

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        return f"{type(self).__name__}{self._value()!r}"

    def apply(self, a: int) -> int:
        return self.table[a]

    @cached_property
    def key(self) -> int | None:
        """The map's key on its lattice (``_interner``); None for the none kind."""
        return _intern(self.lattice, self)

    @cached_property
    def monotone(self) -> bool:
        """a <= b implies g(a) <= g(b); computed once per map object."""
        return _order_break(self.lattice, self.table) is None


class Expansion(UnaryMap):
    """An expansion function; kind d0, d1 or table."""


class PhiMap(UnaryMap):
    """A phi map; kind none, phi0, phi1, phi2, phin, phiomega or table."""

    @property
    def none(self) -> bool:
        """True for the kind that excuses no product at all."""
        return self.kind == "none"


@_per_lattice
def _interner(L: FiniteMultiplicativeLattice):
    """L's map tables in first-seen order, and each table's key, its position
    there; the identity table is seeded as key 0."""
    identity = tuple(range(L.n))
    return [identity], {identity: IDENTITY}


def _intern(L: FiniteMultiplicativeLattice, g: UnaryMap) -> int | None:
    """g's key on L: None for the none kind, else its table's key, the table
    interned on first sight."""
    if g.kind == "none":
        return None
    tables, keys = _interner(L)
    key = keys.setdefault(g.table, len(tables))
    if key == len(tables):
        tables.append(g.table)
    return key


def key_on(L: FiniteMultiplicativeLattice, g: UnaryMap) -> int | None:
    """g's key on L; a map made on an equal lattice object is interned on L by
    its table, and one made on a lattice that is not equal raises ValueError."""
    if g.lattice is L:  # identity first: no lattice compare
        return g.key
    if g.lattice != L:
        raise ValueError(f"map {g.tag!r} was made on {g.lattice.name}, not on {L.name}")
    return _intern(L, g)


def key_table(L: FiniteMultiplicativeLattice, key: int | None) -> tuple[int, ...] | None:
    """The table interned on L under key; None for the none kind's key."""
    return None if key is None else _interner(L)[0][key]


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
        return Expansion(L, L._radical_table, tag or "d1", "d1")
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


_PHI_K = re.compile(r"^phi(\d+)$")


def make_phi(
    L: FiniteMultiplicativeLattice,
    kind: str,
    table=None,
    tag: str | None = None,
) -> PhiMap:
    """Build a phi map.

    Kinds: none, phi<k>, phiomega, table.  phi<k> is phi(a) = a^k, read off
    a's power chain, with phi0 the constant bottom; it is spelt phi followed
    by decimal digits, leading zeros allowed, so "phi3" and "phi03" are the
    same map.  Its tag is phi<k> without leading zeros, and its kind is phi0,
    phi1 or phi2 for k <= 2 and the label phin beyond, which names no map
    itself.  Table kinds are normalized pointwise by meeting with the
    identity so phi(p) <= p holds.
    """
    kind = kind.strip().lower()
    if kind == "none":
        return PhiMap(L, (L.bottom,) * L.n, tag or "none", "none")
    if m := _PHI_K.match(kind):
        k = int(m.group(1))
        powers = (L.bottom,) * L.n if k == 0 else (L.power(a, k) for a in range(L.n))
        return PhiMap(L, tuple(powers), tag or f"phi{k}", f"phi{k}" if k <= 2 else "phin")
    if kind == "phiomega":
        omega = tuple(chain[-1] for chain in L._power_chains)
        return PhiMap(L, omega, tag or "phiomega", "phiomega")
    if kind != "table":
        raise ValueError(f"unknown phi kind {kind!r}")
    t = _check_table(L, table)
    t = tuple(L.glb(a, t[a]) for a in range(L.n))
    return PhiMap(L, t, tag or "table", "table")


def map_leq(g1: UnaryMap, g2: UnaryMap) -> bool:
    """Pointwise comparison g1(a) <= g2(a) on a shared lattice (``_below``)."""
    L = g1.lattice
    return _below(L, g1.key, key_on(L, g2))


@_per_lattice
def _below(L: FiniteMultiplicativeLattice, lower: int | None, upper: int | None) -> bool:
    """Whether the map keyed lower is pointwise below the one keyed upper.
    The flagged "none" phi kind, keyed None, sits strictly below every real
    map: it compares below anything, and nothing but none compares below it."""
    if lower is None or upper is None:
        return lower is None
    return _leq_mask(L, key_table(L, lower), key_table(L, upper)) == (1 << L.n) - 1


def is_monotone(g: UnaryMap) -> bool:
    return g.monotone


class Isomorphism(NamedTuple):
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


def _comparable_pairs(L: FiniteMultiplicativeLattice) -> int:
    """The number of pairs x <= y, x = y included."""
    return sum(map(int.bit_count, L.up_sets))


def _join_steps(L: FiniteMultiplicativeLattice) -> list[tuple[int, int, list[int]]]:
    """(x, y, ks) per element x above bottom, each y before the x it serves.

    y is a lower cover of x and ks lists the positions in ``join_irreducibles``
    of the join-irreducibles below x but not below y.  So the join of a map's
    images over the join-irreducibles below x is its join below y joined with
    the images at ks: in a distributive lattice ks has one entry, in M3 the
    top above one atom needs both other atoms.
    """
    ji, down = L.join_irreducibles, L.down_sets
    cover_below = {x: y for y, x in L.covers}
    steps = []
    for x in sorted(cover_below, key=lambda x: down[x].bit_count()):
        y = cover_below[x]
        new = down[x] & ~down[y]
        steps.append((x, y, [k for k, j in enumerate(ji) if new >> j & 1]))
    return steps


def enumerate_isomorphisms(
    L1: FiniteMultiplicativeLattice, L2: FiniteMultiplicativeLattice
) -> tuple[Isomorphism, ...]:
    """All order+multiplication isomorphisms L1 -> L2, sorted by forward table.

    An isomorphism sends join-irreducibles onto join-irreducibles and is fixed
    by their images: f(x) is the join of f(j) over the join-irreducibles
    j <= x, built in one pass up the covers (``_join_steps``).  So the search
    backtracks over those images only, each with the signature of its
    preimage (which only prunes) and in the same order relation to the
    images placed so far.  A complete assignment is kept when
    f is a bijection and preserves the products of join-irreducible pairs.
    No order row needs a check: f is monotone (x <= y puts every j below x
    below y), so a bijective f maps the comparable pairs of L1 injectively
    into those of L2; the two lattices have as many comparable pairs (checked
    once, up front), so that map is onto, f(x) <= f(y) implies x <= y, and f
    is an order isomorphism.  It then preserves joins, and products
    distribute over joins.  Assumes lattices that pass ``validate``.
    """
    n, ji1, ji2 = L1.n, L1.join_irreducibles, L2.join_irreducibles
    if L2.n != n or len(ji1) != len(ji2) or _comparable_pairs(L1) != _comparable_pairs(L2):
        return ()
    leq1, leq2, mul2 = L1.leq_table, L2.leq_table, L2.mul_table
    sig1 = [_signature(L1, i) for i in ji1]
    sig2 = [_signature(L2, j) for j in ji2]
    candidates = [[j for j, s in zip(ji2, sig2) if s == sig] for sig in sig1]
    steps = _join_steps(L1)
    pairs = [(k, m, L1.mul(ji1[k], ji1[m])) for k in range(len(ji1)) for m in range(k + 1)]
    lub2 = L2._lub
    found: list[tuple[int, ...]] = []
    image: list[int] = []

    def keep_if_isomorphism():
        f = [L2.bottom] * n
        for x, y, ks in steps:
            fx = f[y]
            for k in ks:
                fx = lub2[fx][image[k]]
            f[x] = fx
        if len(set(f)) == n and all(f[xy] == mul2[image[x]][image[y]] for x, y, xy in pairs):
            found.append(tuple(f))

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
