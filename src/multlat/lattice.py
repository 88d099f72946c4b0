"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a commutative,
associative multiplication that distributes over joins and has the top
element as multiplicative identity.  At finite scale completeness is
automatic once every pair has a least upper and greatest lower bound,
so the carrier is stored as its order, one up-set and one down-set bitmask
per element, and an explicit multiplication table.
"""

from __future__ import annotations

from functools import cached_property, wraps
from operator import getitem, itemgetter
from typing import Iterable, NamedTuple, Sequence


class LatticeStructureError(ValueError):
    """Malformed carrier tables: wrong shape, out-of-range index, duplicate label."""


class ValidationReport(NamedTuple):
    """Outcome of an exhaustive axiom check.

    ``failures`` holds one ``(axiom_name, witness_indices)`` entry per violated
    axiom, each carrying the lexicographically first witness found.
    """

    ok: bool
    failures: tuple[tuple[str, tuple[int, ...]], ...]

    def axiom_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.failures)

    def describe(self, lattice: "FiniteMultiplicativeLattice") -> list[str]:
        lines = []
        for name, witness in self.failures:
            labels = ", ".join(lattice.label(i) for i in witness)
            lines.append(f"{name}: witness ({labels})")
        return lines


class FiniteMultiplicativeLattice:
    """Immutable finite multiplicative lattice over an indexed carrier.

    Elements are integers ``0..n-1``; ``labels[i]`` is the display name of
    element ``i``.  The order is stored as bitmasks: bit b of ``up_sets[a]``
    and bit a of ``down_sets[b]`` state ``a <= b``; ``leq_table`` holds it as
    rows of flags, derived on first read.  ``mul_table[a][b]`` is the index
    of the product ``ab``.  All operations are pure and instances compare by
    value.  Each instance keeps the tables and results derived from it
    (bound, residual and radical tables, power chains, validation report, and
    the memo filled by ``_per_lattice`` functions), so they are computed once
    per object and freed with it.
    """

    def __init__(self, name, labels, leq, mul, bottom, top):
        labels = tuple(map(str, labels))
        n = len(labels)
        if n == 0:
            raise LatticeStructureError("empty carrier")
        if len(set(labels)) != n:
            raise LatticeStructureError("duplicate element labels")
        leq = tuple(tuple(map(bool, row)) for row in leq)
        mul = tuple(tuple(map(int, row)) for row in mul)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise LatticeStructureError("order table is not n-by-n")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise LatticeStructureError("multiplication table is not n-by-n")
        if min(map(min, mul)) < 0 or max(map(max, mul)) >= n:
            v = next(v for row in mul for v in row if not 0 <= v < n)
            raise LatticeStructureError(f"product index {v} out of range")
        bottom, top = int(bottom), int(top)
        if not (0 <= bottom < n and 0 <= top < n):
            raise LatticeStructureError("bottom/top index out of range")
        up, down = tuple(map(_mask, leq)), tuple(map(_mask, zip(*leq)))
        self._store(str(name), labels, up, down, mul, bottom, top)
        self.leq_table = leq  # already built, so the derived view is not rebuilt

    @classmethod
    def _from_masks(cls, *parts):
        """For builders: the parts in stored form, as ``_store`` takes them, unchecked."""
        L = cls.__new__(cls)
        L._store(*parts)
        return L

    def _store(self, name, labels, up, down, mul, bottom, top):
        # labels a tuple of str; bit k of up[a] (of down[a]) is set iff a <= k
        # (k <= a); mul a tuple of tuple-of-int rows indexing the carrier
        self.name, self.labels, self.n = name, labels, len(labels)
        self.up_sets, self.down_sets = up, down
        self.mul_table, self.bottom, self.top = mul, bottom, top
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._memo = {}  # filled by _per_lattice functions

    # -- identity ---------------------------------------------------------

    def _value(self) -> tuple:
        return self.name, self.labels, self.up_sets, self.mul_table, self.bottom, self.top

    @cached_property
    def _hash(self) -> int:  # on first use: building a lattice hashes no table
        return hash(self._value())

    def __eq__(self, other):
        if not isinstance(other, FiniteMultiplicativeLattice):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteMultiplicativeLattice({self.name!r}, n={self.n})"

    # -- carrier access ---------------------------------------------------

    def elements(self) -> range:
        return range(self.n)

    @cached_property
    def proper_elements(self) -> tuple[int, ...]:
        """Elements strictly below top (empty for the one-element lattice)."""
        return tuple(i for i in range(self.n) if i != self.top)

    def label(self, a: int) -> str:
        return self.labels[a]

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown element label {label!r} in {self.name}") from None

    # -- order ------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        return self.up_sets[a] >> b & 1 == 1

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.up_sets[a] >> b & 1 == 1

    @cached_property
    def leq_table(self) -> tuple[tuple[bool, ...], ...]:
        """The order as rows of flags, ``leq_table[a][b]`` iff a <= b, read off ``up_sets``."""
        width = f"0{self.n}b"
        return tuple(tuple(map("1".__eq__, format(m, width)[::-1])) for m in self.up_sets)

    @cached_property
    def _lub(self) -> tuple[tuple[int, ...], ...]:
        return self._bound_table(upper=True)

    @cached_property
    def _glb(self) -> tuple[tuple[int, ...], ...]:
        return self._bound_table(upper=False)

    def _bound_table(self, upper: bool) -> tuple[tuple[int, ...], ...]:
        """The lub (upper) or glb table; raises on the first missing bound, row-major."""
        for i, j in _missing(self, upper):
            kind = "least upper" if upper else "greatest lower"
            raise LatticeStructureError(
                f"no {kind} bound for ({self.label(i)}, {self.label(j)})"
            )
        return self._partial_lub if upper else self._partial_glb

    @cached_property
    def _partial_lub(self) -> tuple[tuple[int, ...], ...]:
        return self._partial_bounds(upper=True)

    @cached_property
    def _partial_glb(self) -> tuple[tuple[int, ...], ...]:
        return self._partial_bounds(upper=False)

    def _partial_bounds(self, upper: bool) -> tuple[tuple[int, ...], ...]:
        # The lub of (i, j) is the element whose up-set is up[i] & up[j], dually the
        # glb; a reflexive antisymmetric order admits no other.  Otherwise, or on a
        # miss, each candidate is checked; -1 marks a pair with no unique bound.
        up, down = self.up_sets, self.down_sets
        sets = up if upper else down
        poset = all(u & d == 1 << k for k, (u, d) in enumerate(zip(up, down)))
        owner = {m: k for k, m in enumerate(sets)} if poset else {}
        table = []
        for si in sets:
            row = []
            for sj in sets:
                common = si & sj
                k = owner.get(common)
                if k is None:
                    best = [c for c in _bits(common) if common & ~sets[c] == 0]
                    k = best[0] if len(best) == 1 else -1
                row.append(k)
            table.append(tuple(row))
        return tuple(table)

    def lub(self, a: int, b: int) -> int:
        return self._lub[a][b]

    def glb(self, a: int, b: int) -> int:
        return self._glb[a][b]

    def join(self, ids) -> int:
        """Least upper bound of a finite set of elements; join of nothing is bottom."""
        out = self.bottom
        for i in ids:
            out = self._lub[out][i]
        return out

    def meet(self, ids) -> int:
        """Greatest lower bound of a finite set of elements; meet of nothing is top."""
        out = self.top
        for i in ids:
            out = self._glb[out][i]
        return out

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse cover pairs (a, b) with a < b and nothing strictly between,
        row-major: a ascending, then b ascending.

        The upper covers of a are the minimal elements of its strict up-set,
        peeled off one at a time: descend from the lowest element left to a
        minimal one, record it, and clear its up-set from what is left.
        """
        up, down, out = self.up_sets, self.down_sets, []
        for a, above in enumerate(up):
            above &= ~(1 << a)
            rest, found = above, []
            while rest:
                pool = rest  # shrinks at each step, so a cyclic order ends too
                c = (pool & -pool).bit_length() - 1
                while below := down[c] & pool & ~(1 << c):
                    pool = below
                    c = (below & -below).bit_length() - 1
                if down[c] & above & ~(1 << c):  # only where the order is not partial
                    rest &= ~(1 << c)
                else:
                    found.append(c)
                    rest &= ~(up[c] | 1 << c)
            out.extend((a, b) for b in sorted(found))
        return tuple(out)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements with exactly one lower cover, in ascending order."""
        lower = [0] * self.n
        for _, b in self.covers:
            lower[b] += 1
        return tuple(b for b, k in enumerate(lower) if k == 1)

    # -- multiplication ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def power(self, a: int, k: int) -> int:
        """a^k for k >= 1, read off a's power chain: past its end a^k stays put."""
        if k < 1:
            raise ValueError(f"power exponent must be >= 1, got {k}")
        chain = self._power_chains[a]
        return chain[min(k, len(chain)) - 1]

    @cached_property
    def _power_chains(self) -> tuple[tuple[int, ...], ...]:
        """Per element a, the values a, a^2, a^3, ... up to the first repeat.

        On a lawful lattice powers descend (a^(k+1) <= a^k), so the first value
        met twice is the fixed point a^s = a^(s+1): the chain holds exactly
        a, ..., a^s and its last entry is the meet of all powers of a.  Stopping
        at any repeat, not only a fixed point, also ends the walk on a table
        whose powers cycle.
        """
        mul, chains = self.mul_table, []
        for a in range(self.n):
            chain, seen = [a], {a}
            while (cur := mul[chain[-1]][a]) not in seen:
                chain.append(cur)
                seen.add(cur)
            chains.append(tuple(chain))
        return tuple(chains)

    # -- residuation -------------------------------------------------------

    @cached_property
    def _residual_table(self) -> tuple[tuple[int, ...], ...]:
        """(t : b) for every t, b: {x : xb <= t} is the down-set of (t : b).

        Column b is the residual of the map x -> xb, and most columns are
        composed from two others.  Say c is an upper cover of b, j != b has
        cj = b, and x*b = (x*j)*c for every x (one comparison of whole
        columns).  Then xb <= t iff xj <= (t : c), as column c is exact, iff
        x <= ((t : c) : j), as column j is: column b is column j read through
        column c, one gather.  The proof needs no axiom, only that columns c
        and j are exact.  So elements are taken largest down-set first, and a
        column with no such (c, j) among those met before it goes through the
        pass along the covers, all such columns in one batched call.  On Zn
        and boolean frames that leaves the top and the coatoms; on a chain,
        every column.

        The pass finds each {x : image[x] <= t} only where it reproduces the
        order, which is checked once by turning the identity map into the
        down-sets.  Then a composed column holds the values the pass would
        give it and cannot make the pass raise, so every table, lawful or
        not, gets the pass's values or its error.  Where the check fails,
        every column goes through the pass.
        """
        mul, down = self.mul_table, self.down_sets
        cols = tuple(zip(*mul))  # cols[b][x] = x*b
        factors = {}  # b -> (c, j), in the order met
        if next(self._preimage_sets([range(self.n)])) == list(down):
            uppers = [[] for _ in cols]
            for b, c in self.covers:
                uppers[b].append(c)
            met = bytearray(self.n)
            for b in sorted(range(self.n), key=lambda x: -down[x].bit_count()):
                for c in uppers[b]:
                    row = mul[c]
                    if row.count(b) == (row[b] == b):  # no j != b with cj = b
                        continue
                    j = row.index(b)
                    if j == b:
                        j = row.index(b, b + 1)
                    if met[c] and met[j] and cols[b] == _gather(cols[j])(cols[c]):
                        factors[b] = c, j
                        break
                met[b] = 1
        rest = [b for b in range(self.n) if b not in factors]
        pre = dict(zip(rest, self._principal_preimages(map(cols.__getitem__, rest))))
        del cols  # before the table is built, so the two are never held together
        for b, (c, j) in factors.items():
            pre[b] = _gather(pre[c])(pre[j])
        return tuple(zip(*map(pre.__getitem__, range(self.n))))

    @cached_property
    def _radical_table(self) -> tuple[int, ...]:
        # x has some power below a iff its stabilized power is below a,
        # because the power chain descends and is finite.
        omegas = [chain[-1] for chain in self._power_chains]
        return tuple(self._principal_preimages([omegas])[0])

    def _principal_preimages(self, images) -> list[list[int]]:
        """For each image map, the element whose down-set is {x : image[x] <= t}, per t.

        Callers pass maps for which every such set is a principal down-set, as in a
        lawful lattice.  The carrier is split by image value and the parts are ORed
        along the covers, ordered by the upper end's rank so that each part is
        complete before it is passed up: one pass per map.  A set that is not
        principal raises ``LatticeStructureError`` naming the axioms the table breaks.
        """
        owner = {m: k for k, m in enumerate(self.down_sets)}
        out = []
        for acc in self._preimage_sets(images):
            try:
                out.append(list(map(owner.__getitem__, acc)))
            except KeyError:
                broken = ", ".join(self.validation.axiom_names())
                raise LatticeStructureError(
                    f"{self.name} has no residual or radical table: it breaks {broken}"
                ) from None
        return out

    def _preimage_sets(self, images):
        """Per image map, the bitmasks the pass along the covers ORs up, per t."""
        down = self.down_sets
        steps = sorted(self.covers, key=lambda cover: down[cover[1]].bit_count())
        singles = [1 << x for x in range(self.n)]
        for image in images:
            acc = [0] * self.n
            for v, bit in zip(image, singles):
                acc[v] |= bit
            for c, t in steps:
                acc[t] |= acc[c]
            yield acc

    @cached_property
    def validation(self) -> ValidationReport:
        """The report of ``validate``, computed once per lattice object."""
        return _check_axioms(self)


def _per_lattice(fn):
    """Keep fn(L, *args) on L, computed once per lattice object.

    The result is stored in ``L._memo`` under ``(fn, *args)``: the key never
    holds L itself, so a lookup never compares lattices, and the result is
    freed together with L.  Only ``._memo`` is read, so any owner of such a
    dict works the same way: ``hunt`` keeps its index on the ``Corpus``.
    """

    @wraps(fn)
    def kept(L, *args):
        key = (fn, *args)
        memo = L._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(L, *args)
            return value

    return kept


_BINARY = bytes.maketrans(b"\0\1", b"01")


def _mask(flags: Iterable[bool]) -> int:
    """The indices of the true entries of a flag per element, as a bitmask."""
    return int(bytes(flags)[::-1].translate(_BINARY), 2)


def _transpose(masks: Sequence[int]) -> tuple[int, ...]:
    """Bit i of entry j is set iff bit j of masks[i] is: up-sets to down-sets and back."""
    # The masks as rows of binary digits, last first, read column by column.
    rows = [format(m, f"0{len(masks)}b") for m in reversed(masks)]
    return tuple(int("".join(col), 2) for col in zip(*rows))[::-1]


def _leq_mask(L, xs: Sequence[int], ys: Iterable[int]) -> int:
    """The elements x with xs[x] <= ys[x]."""
    return _mask(map(getitem, map(L.leq_table.__getitem__, xs), ys))


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _missing(L: FiniteMultiplicativeLattice, upper: bool):
    """Per row i with a pair that has no unique lub (upper) or glb, -1 in L's
    partial table, the first such (i, j).  The table is read, so built, only
    when the first pair is asked for."""
    table = L._partial_lub if upper else L._partial_glb
    for i, row in enumerate(table):
        if -1 in row:
            yield i, row.index(-1)


def _gather(idx):
    """The map seq -> tuple(seq[i] for i in idx), run as one C call."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda seq: (get(seq),)


def _associativity_breaks(mul, rows, cols):
    """(a, b, c) with (ab)c != a(bc), for a in rows and b in cols, row-major."""
    # row (ab)c against row a(bc); one getter per row b
    times = [(b, _gather(mul[b])) for b in cols]
    for a in rows:
        row = mul[a]
        for b, by_b in times:
            if (ab_c := mul[row[b]]) != (a_bc := by_b(row)):
                yield from ((a, b, c) for c in range(len(row)) if ab_c[c] != a_bc[c])


def _distributivity_breaks(mul, lub, rows, cols):
    """(a, b, c) with a(b v c) != ab v ac, for a in rows and b in cols, row-major.

    A triple where either join is missing (-1 in lub) is skipped.
    """
    # row a(b v c) against row ab v ac; one getter per row a and per row b
    joins = [(b, lub[b], _gather(lub[b])) for b in cols]
    for a in rows:
        row = mul[a]
        by_a = _gather(row)
        for b, lub_b, join_b in joins:
            if (lhs := join_b(row)) != (rhs := by_a(lub[row[b]])):
                yield from (
                    (a, b, c) for c in range(len(row))
                    if lhs[c] != rhs[c] and lub_b[c] >= 0 and rhs[c] >= 0
                )


def _monotonicity_breaks(mul, up):
    """(a, b, c) with b <= c and ab !<= ac, row-major."""
    # every c >= b must have ac >= ab: bit ac of up[ab]
    above = [tuple(_bits(m)) for m in up]
    for a, row in enumerate(mul):
        for b, ab in enumerate(map(up.__getitem__, row)):
            yield from ((a, b, c) for c in above[b] if not ab >> row[c] & 1)


def validate(L: FiniteMultiplicativeLattice) -> ValidationReport:
    """Check every lattice and multiplication axiom, exhaustively or by proof.

    Checks, in order: reflexivity, antisymmetry, transitivity of the order;
    bottom least and top greatest; existence of pairwise joins and meets;
    commutativity, associativity, identity (a*top = a), annihilation
    (a*bottom = bottom), distributivity over binary joins, and monotonicity.
    One lexicographically-first witness is recorded per violated axiom.
    Where the axioms scanned before them hold, meets and monotonicity follow
    from those axioms, and distributivity and associativity from checks on
    the join-irreducibles alone (the proofs are in ``docs/formats.md``).  An
    axiom is scanned in full only where its proof does not apply or its
    check fails, so the report is that of the exhaustive scans.  The report
    is kept on the lattice, so a second call costs nothing.
    """
    return L.validation


def _check_axioms(L: FiniteMultiplicativeLattice) -> ValidationReport:
    # Each scan yields witnesses in the row-major order of the plain triple
    # loop, reading whole rows of the up-set bitmasks and of the tables.
    rng, full, bottom = range(L.n), (1 << L.n) - 1, L.bottom
    mul, up, down = L.mul_table, L.up_sets, L.down_sets
    cols = tuple(zip(*mul))
    lub = L._partial_lub  # -1 marks a pair with no join: reported below, skipped by the scans
    failures = []

    def check(name, scan, proved=False):
        # skipped only where a proof applies and passes, so a failure has its scan's witness
        if not proved and (w := next(scan, None)) is not None:
            failures.append((name, w))

    check("order-reflexive", ((i,) for i in rng if not up[i] >> i & 1))
    check("order-antisymmetric",
          ((i, j) for i in rng for j in _bits(up[i] & down[i] & ~(1 << i))))
    check("order-transitive",
          ((i, j, k) for i in rng for j in _bits(up[i]) for k in _bits(up[j] & ~up[i])))
    check("bottom-least", ((i,) for i in _bits(full & ~up[bottom])))
    check("top-greatest", ((i,) for i in _bits(full & ~down[L.top])))
    check("pairwise-join-exists", _missing(L, upper=True))
    ordered = not failures
    # Finite, with a least element and every binary join: the meet of a and b
    # is the join of their lower bounds.
    check("pairwise-meet-exists", _missing(L, upper=False), proved=ordered)
    check("mul-commutative",
          ((a, b) for a in rng if mul[a] != cols[a] for b in rng if mul[a][b] != mul[b][a]))
    # Fix a and say a(j v c) = aj v ac for every join-irreducible j and every
    # c.  Then c = bottom gives a*bottom <= aj, and c >= j gives ac = aj v ac
    # >= aj, so a*bottom <= ac for every c.  Every b is a join of
    # join-irreducibles, bottom the empty one: a(bottom v c) = ac = a*bottom v
    # ac, and b = j v b', with b' the join of the others, gives a(b v c) =
    # aj v a(b' v c) = aj v ab' v ac = ab v ac by induction.  Neither
    # commutativity nor annihilation is needed.
    ji = L.join_irreducibles
    distributes = ordered and next(_distributivity_breaks(mul, lub, rng, ji), None) is None
    # Write x and y as joins of join-irreducibles a_i and b_j.  Products
    # distribute over those joins on either side (commutativity), so (xy)z
    # and x(yz) are the joins of the (a_i b_j)z and a_i(b_j z), and both are
    # bottom when x or y is bottom (annihilation).
    check("mul-associative", _associativity_breaks(mul, rng, rng), proved=(
        not failures
        and distributes
        and all(row[bottom] == bottom for row in mul)
        and next(_associativity_breaks(mul, ji, ji), None) is None
    ))
    check("mul-identity", ((a,) for a in rng if mul[a][L.top] != a))
    check("mul-annihilates-bottom", ((a,) for a in rng if mul[a][bottom] != bottom))
    check("mul-join-distributive", _distributivity_breaks(mul, lub, rng, rng),
          proved=distributes)
    # With a partial order, every join and distributivity, b <= c gives
    # b v c = c, so ac = a(b v c) = ab v ac >= ab.
    check("mul-monotone", _monotonicity_breaks(mul, up), proved=not failures)
    return ValidationReport(ok=not failures, failures=tuple(failures))
