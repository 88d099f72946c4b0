"""Finite multiplicative lattices.

A multiplicative lattice is a complete lattice carrying a commutative,
associative multiplication that distributes over joins and has the top
element as multiplicative identity.  At finite scale completeness is
automatic once every pair has a least upper and greatest lower bound,
so the carrier is stored as explicit order and multiplication tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class LatticeStructureError(ValueError):
    """Malformed carrier tables: wrong shape, out-of-range index, duplicate label."""


@dataclass(frozen=True)
class ValidationReport:
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
    element ``i``.  ``leq_table[a][b]`` states ``a <= b`` and
    ``mul_table[a][b]`` is the index of the product ``ab``.  All operations
    are pure; instances hash and compare by value, so they are safe cache
    keys.
    """

    def __init__(self, name, labels, leq, mul, bottom, top):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n == 0:
            raise LatticeStructureError("empty carrier")
        if len(set(labels)) != n:
            raise LatticeStructureError("duplicate element labels")
        leq = tuple(tuple(bool(v) for v in row) for row in leq)
        mul_rows = []
        for row in mul:
            mul_rows.append(tuple(int(v) for v in row))
        mul = tuple(mul_rows)
        if len(leq) != n or any(len(row) != n for row in leq):
            raise LatticeStructureError("order table is not n-by-n")
        if len(mul) != n or any(len(row) != n for row in mul):
            raise LatticeStructureError("multiplication table is not n-by-n")
        for row in mul:
            for v in row:
                if not 0 <= v < n:
                    raise LatticeStructureError(f"product index {v} out of range")
        bottom = int(bottom)
        top = int(top)
        if not (0 <= bottom < n and 0 <= top < n):
            raise LatticeStructureError("bottom/top index out of range")
        self.name = str(name)
        self.labels = labels
        self.n = n
        self.leq_table = leq
        self.mul_table = mul
        self.bottom = bottom
        self.top = top
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._hash = hash((self.name, labels, leq, mul, bottom, top))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteMultiplicativeLattice):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.name == other.name
            and self.labels == other.labels
            and self.leq_table == other.leq_table
            and self.mul_table == other.mul_table
            and self.bottom == other.bottom
            and self.top == other.top
        )

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
        return self.leq_table[a][b]

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq_table[a][b]

    @cached_property
    def up_sets(self) -> tuple[int, ...]:
        """Bitmask per element: bit k of ``up_sets[a]`` is set iff a <= k."""
        return tuple(sum(v << k for k, v in enumerate(row)) for row in self.leq_table)

    @cached_property
    def down_sets(self) -> tuple[int, ...]:
        """Bitmask per element: bit k of ``down_sets[a]`` is set iff k <= a."""
        cols = zip(*self.leq_table)
        return tuple(sum(v << k for k, v in enumerate(col)) for col in cols)

    @cached_property
    def _lub(self) -> tuple[tuple[int, ...], ...]:
        return self._bound_table(upper=True)

    @cached_property
    def _glb(self) -> tuple[tuple[int, ...], ...]:
        return self._bound_table(upper=False)

    def _bound_table(self, upper: bool) -> tuple[tuple[int, ...], ...]:
        # The lub of (i, j) is the element whose up-set is up[i] & up[j], dually the
        # glb; a reflexive antisymmetric order admits no other.  Otherwise, or on a
        # miss, each candidate is checked, so a broken order fails on the same pair.
        up, down = self.up_sets, self.down_sets
        sets = up if upper else down
        poset = all(u & d == 1 << k for k, (u, d) in enumerate(zip(up, down)))
        owner = {m: k for k, m in enumerate(sets)} if poset else {}
        table = []
        for i, si in enumerate(sets):
            row = []
            for j, sj in enumerate(sets):
                common = si & sj
                k = owner.get(common)
                if k is None:
                    best = [c for c in _bits(common) if common & ~sets[c] == 0]
                    if len(best) != 1:
                        kind = "least upper" if upper else "greatest lower"
                        raise LatticeStructureError(
                            f"no {kind} bound for ({self.label(i)}, {self.label(j)})"
                        )
                    k = best[0]
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
        """Hasse cover pairs (a, b) with a < b and nothing strictly between."""
        out = []
        for a, up in enumerate(self.up_sets):
            above = up & ~(1 << a)
            beyond = 0
            for c in _bits(above):
                beyond |= self.up_sets[c] & ~(1 << c)
            out.extend((a, b) for b in _bits(above & ~beyond))
        return tuple(out)

    # -- multiplication ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 1:
            raise ValueError(f"power exponent must be >= 1, got {k}")
        out = a
        for _ in range(k - 1):
            if self.mul_table[out][a] == out:  # every further step returns out too
                break
            out = self.mul_table[out][a]
        return out


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first(iterable):
    for item in iterable:
        return item
    return None


def validate(L: FiniteMultiplicativeLattice) -> ValidationReport:
    """Exhaustively check every lattice and multiplication axiom.

    Checks, in order: reflexivity, antisymmetry, transitivity of the order;
    bottom least and top greatest; existence of pairwise joins and meets;
    commutativity, associativity, identity (a*top = a), annihilation
    (a*bottom = bottom), distributivity over binary joins, and monotonicity.
    One lexicographically-first witness is recorded per violated axiom.
    """
    n = L.n
    leq = L.leq_table
    mul = L.mul_table
    rng = range(n)
    failures: list[tuple[str, tuple[int, ...]]] = []

    w = _first((i,) for i in rng if not leq[i][i])
    if w:
        failures.append(("order-reflexive", w))
    w = _first((i, j) for i in rng for j in rng if i != j and leq[i][j] and leq[j][i])
    if w:
        failures.append(("order-antisymmetric", w))
    w = _first(
        (i, j, k)
        for i in rng for j in rng for k in rng
        if leq[i][j] and leq[j][k] and not leq[i][k]
    )
    if w:
        failures.append(("order-transitive", w))
    w = _first((i,) for i in rng if not leq[L.bottom][i])
    if w:
        failures.append(("bottom-least", w))
    w = _first((i,) for i in rng if not leq[i][L.top])
    if w:
        failures.append(("top-greatest", w))

    # Pairwise bounds are computed from the raw order so a broken table is
    # reported rather than crashing downstream.
    def least_upper(i, j):
        cands = [k for k in rng if leq[i][k] and leq[j][k]]
        best = [k for k in cands if all(leq[k][c] for c in cands)]
        return best[0] if len(best) == 1 else None

    def greatest_lower(i, j):
        cands = [k for k in rng if leq[k][i] and leq[k][j]]
        best = [k for k in cands if all(leq[c][k] for c in cands)]
        return best[0] if len(best) == 1 else None

    w = _first((i, j) for i in rng for j in rng if least_upper(i, j) is None)
    if w:
        failures.append(("pairwise-join-exists", w))
    w = _first((i, j) for i in rng for j in rng if greatest_lower(i, j) is None)
    if w:
        failures.append(("pairwise-meet-exists", w))

    w = _first((a, b) for a in rng for b in rng if mul[a][b] != mul[b][a])
    if w:
        failures.append(("mul-commutative", w))
    w = _first(
        (a, b, c)
        for a in rng for b in rng for c in rng
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]
    )
    if w:
        failures.append(("mul-associative", w))
    w = _first((a,) for a in rng if mul[a][L.top] != a)
    if w:
        failures.append(("mul-identity", w))
    w = _first((a,) for a in rng if mul[a][L.bottom] != L.bottom)
    if w:
        failures.append(("mul-annihilates-bottom", w))

    def dist_witness():
        for a in rng:
            for b in rng:
                for c in rng:
                    j = least_upper(b, c)
                    p = least_upper(mul[a][b], mul[a][c])
                    if j is None or p is None:
                        continue  # already reported as a missing bound
                    if mul[a][j] != p:
                        return (a, b, c)
        return None

    w = dist_witness()
    if w:
        failures.append(("mul-join-distributive", w))
    w = _first(
        (a, b, c)
        for a in rng for b in rng for c in rng
        if leq[b][c] and not leq[mul[a][b]][mul[a][c]]
    )
    if w:
        failures.append(("mul-monotone", w))

    return ValidationReport(ok=not failures, failures=tuple(failures))
