"""Stock lattices, the lattice file format, and the default corpus.

zn_ideal_lattice(n) models the ideals of the ring of integers mod n: the
carrier is the divisor set of n, (a) <= (b) iff b | a, join is gcd, meet is
lcm, and (a)(b) = (gcd(a*b, n)).  chain_frame and boolean_frame carry meet
as multiplication.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from math import gcd, isqrt
from operator import and_
from typing import Iterable, NamedTuple

from .lattice import FiniteMultiplicativeLattice, _bits, _mask, _transpose, validate

_ZN_LIMIT = 10**6


class LatticeFormatError(ValueError):
    """The textual description is malformed (syntax, missing parts, order cycles)."""


class LatticeValidationError(ValueError):
    """The description parsed but the resulting tables violate an axiom."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def zn_ideal_lattice(n: int) -> FiniteMultiplicativeLattice:
    """Ideal lattice of the integers mod n (2 <= n <= 10^6).

    Elements are labeled "(d)" by their generating divisor, with the zero
    ideal "(0)" first, proper divisors ascending, and the whole ring "(1)"
    last.  The order is read off each divisor's prime exponents, and the
    product rows are composed from the primes' rows; no divisor pair is
    tested.
    """
    if not isinstance(n, int) or not 2 <= n <= _ZN_LIMIT:
        raise ValueError(f"zn_ideal_lattice needs an integer in [2, {_ZN_LIMIT}], got {n!r}")
    primes, m = [], n  # n = prod p^e over (p, e), by trial division
    for p in range(2, isqrt(n) + 1):
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e:
            primes.append((p, e))
    if m > 1:
        primes.append((m, 1))
    exps = {1: ()}  # each divisor's exponent of each prime
    for p, e in primes:
        exps = {d * p**k: (*t, k) for d, t in exps.items() for k in range(e + 1)}
    divisors = sorted(exps)
    values = [n] + divisors[1:-1] + [1]
    size, index = len(values), {v: i for i, v in enumerate(values)}
    labels = ["(0)"] + [f"({d})" for d in values[1:-1]] + ["(1)"]
    # (w) <= (v) iff v | w iff e_p(v) <= e_p(w) for every p: down[(v)] is the
    # AND over p of the mask of the w at or above v's level of p, up[(v)]
    # dually, with one mask per (prime, level).
    up = down = [(1 << size) - 1] * size
    for (_, e), col in zip(primes, zip(*map(exps.__getitem__, values))):
        at_least = [_mask(map(k.__le__, col)) for k in range(e + 1)]
        at_most = [_mask(map(k.__ge__, col)) for k in range(e + 1)]
        down = list(map(and_, down, map(at_least.__getitem__, col)))
        up = list(map(and_, up, map(at_most.__getitem__, col)))
    # (v) = (p)(v/p) for v's least prime factor p: v's row is p's row read at
    # the entries of v/p's row, built before it, as one bytes.translate.  The
    # rows fit in bytes: no n <= 10^6 has more than 240 divisors (720720,
    # 831600, 942480, 982800 and 997920 have 240; the next highly composite
    # number, 1081080, is above _ZN_LIMIT).
    rows, tables = {1: bytes(range(size))}, {}
    for v in divisors[1:]:
        p = next(p for (p, _), k in zip(primes, exps[v]) if k)
        if p == v:  # a prime: the one kind of row that takes a gcd
            rows[v] = bytes(map(index.__getitem__, map(gcd, map(v.__mul__, values), repeat(n))))
            tables[v] = rows[v].ljust(256, b"\0")
        else:
            rows[v] = rows[v // p].translate(tables[p])
    mul = tuple(map(tuple, map(rows.__getitem__, values)))
    return FiniteMultiplicativeLattice._from_masks(
        f"Z{n}", tuple(labels), tuple(up), tuple(down), mul, 0, size - 1
    )


def chain_frame(k: int) -> FiniteMultiplicativeLattice:
    """Chain of k+1 elements with meet as multiplication (0 <= k <= 1023).

    The bound keeps the carrier at most 1,024 elements, as ``boolean_frame``'s does.
    """
    if not isinstance(k, int) or not 0 <= k <= 1023:
        raise ValueError(f"chain_frame needs an integer in [0, 1023], got {k!r}")
    size, full = k + 1, (2 << k) - 1
    up = tuple(full ^ ((1 << i) - 1) for i in range(size))  # i..k
    down = tuple((2 << i) - 1 for i in range(size))  # 0..i
    mul = tuple(tuple(range(i)) + (i,) * (size - i) for i in range(size))  # min(i, j)
    return FiniteMultiplicativeLattice._from_masks(
        f"chain{k}", tuple(map(str, range(size))), up, down, mul, 0, size - 1
    )


def boolean_frame(k: int) -> FiniteMultiplicativeLattice:
    """Powerset of k atoms with meet as multiplication (0 <= k <= 10)."""
    if not isinstance(k, int) or not 0 <= k <= 10:
        raise ValueError(f"boolean_frame needs an integer in [0, 10], got {k!r}")
    atoms = "abcdefghij"[:k]
    size = 1 << k
    labels = [
        "{" + "".join(atoms[i] for i in range(k) if mask >> i & 1) + "}"
        for mask in range(size)
    ]
    # i <= j iff i is a submask of j: down[j] drops the i with an atom j
    # lacks, up[i] keeps the j with every atom i has.
    full = (1 << size) - 1
    has = [_mask(x >> t & 1 for x in range(size)) for t in range(k)]
    up = tuple(reduce(and_, (has[t] for t in range(k) if i >> t & 1), full)
               for i in range(size))
    down = tuple(reduce(and_, (full ^ has[t] for t in range(k) if not j >> t & 1), full)
                 for j in range(size))
    mul = tuple(tuple(map(i.__and__, range(size))) for i in range(size))
    return FiniteMultiplicativeLattice._from_masks(
        f"bool{size}", tuple(labels), up, down, mul, 0, size - 1
    )


# -- textual format ---------------------------------------------------------


def _closure_from_covers(n: int, covers: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The up-set masks of the reflexive-transitive closure of the covers."""
    up = [1 << i for i in range(n)]  # row i of the order as a bitmask
    for a, b in covers:
        up[a] |= 1 << b
    for k in range(n):  # Warshall, a whole row at a time
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return tuple(up)


def parse_lattice(text: str) -> FiniteMultiplicativeLattice:
    """Parse the line-oriented lattice format.

    Grammar (tokens are whitespace-separated; '#' starts a comment):

        lattice <name>
        elements <label> ...
        bottom <label>
        top <label>
        cover <a> < <b>        (one per Hasse edge; order is their closure)
        mul <a> * <b> = <c>    (one per unordered pair; a * top may be omitted)

    Raises LatticeFormatError for malformed input (including order cycles and
    a partial multiplication table) and LatticeValidationError when the
    parsed tables fail an axiom.
    """
    name = None
    labels: list[str] | None = None
    bottom_label = top_label = None
    covers: list[tuple[str, str]] = []  # labels, resolved after the loop
    muls: list[tuple[str, str, str]] = []

    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        key = parts[0]
        if key == "mul":
            if len(parts) != 6 or parts[2] != "*" or parts[4] != "=":
                raise LatticeFormatError(f"line {lineno}: expected 'mul a * b = c'")
            muls.append((parts[1], parts[3], parts[5]))
        elif key == "cover":
            if len(parts) != 4 or parts[2] != "<":
                raise LatticeFormatError(f"line {lineno}: expected 'cover a < b'")
            covers.append((parts[1], parts[3]))
        elif key == "lattice":
            if len(parts) != 2 or name is not None:
                raise LatticeFormatError(f"line {lineno}: bad or repeated lattice line")
            name = parts[1]
        elif key == "elements":
            if labels is not None or len(parts) < 2:
                raise LatticeFormatError(f"line {lineno}: bad or repeated elements line")
            labels = parts[1:]
        elif key == "bottom":
            if len(parts) != 2:
                raise LatticeFormatError(f"line {lineno}: bad bottom line")
            bottom_label = parts[1]
        elif key == "top":
            if len(parts) != 2:
                raise LatticeFormatError(f"line {lineno}: bad top line")
            top_label = parts[1]
        else:
            raise LatticeFormatError(f"line {lineno}: unknown directive {key!r}")

    if name is None or labels is None or bottom_label is None or top_label is None:
        raise LatticeFormatError("missing lattice/elements/bottom/top header")
    if len(set(labels)) != len(labels):
        raise LatticeFormatError("duplicate element labels")
    index = {lab: i for i, lab in enumerate(labels)}
    get = index.get

    def look(label: str) -> int:
        if label not in index:
            raise LatticeFormatError(f"unknown element label {label!r}")
        return index[label]

    # Labels resolve in the order the checks below first read them: bottom,
    # top, each cover's a then b, then each mul line's a, b, c and conflict.
    bottom, top = look(bottom_label), look(top_label)
    n = len(labels)
    ends = [label for pair in covers for label in pair]
    ids = list(map(get, ends))
    if None in ids:
        look(ends[ids.index(None)])
    up = _closure_from_covers(n, zip(ids[::2], ids[1::2]))
    down = _transpose(up)
    bad = next((i for i in range(n) if up[i] & down[i] != 1 << i), None)
    if bad is not None:
        j = next(_bits(up[bad] & down[bad] & ~(1 << bad)))
        raise LatticeFormatError(
            f"cover closure violates antisymmetry: {labels[bad]} and {labels[j]}"
        )

    mul: list[list[int | None]] = [[None] * n for _ in range(n)]
    for la, lb, lc in muls:
        a, b, c = get(la), get(lb), get(lc)
        if a is None or b is None or c is None:
            look(la), look(lb), look(lc)  # raises on the first miss
        row = mul[a]
        if row[b] is None:  # mul[b][a] is set with it, so it is None too
            row[b] = mul[b][a] = c
        elif row[b] != c:
            raise LatticeFormatError(f"conflicting products for {la} * {lb}")
    top_row = mul[top]
    for a, row in enumerate(mul):  # a * top defaults to a
        if row[top] is None:
            row[top] = a
        if top_row[a] is None:
            top_row[a] = a
    missing = next(((i, row.index(None)) for i, row in enumerate(mul) if None in row), None)
    if missing:
        raise LatticeFormatError(
            "multiplication not total: missing "
            f"{labels[missing[0]]} * {labels[missing[1]]}"
        )

    lattice = FiniteMultiplicativeLattice._from_masks(
        name, tuple(labels), up, down, tuple(map(tuple, mul)), bottom, top
    )
    report = validate(lattice)
    if not report.ok:
        raise LatticeValidationError(
            f"{name}: axiom failures: {', '.join(report.axiom_names())}", report
        )
    return lattice


def serialize(L: FiniteMultiplicativeLattice) -> str:
    """Render a lattice in the textual format; parse(serialize(L)) == L."""
    lines = [
        f"lattice {L.name}",
        "elements " + " ".join(L.labels),
        f"bottom {L.label(L.bottom)}",
        f"top {L.label(L.top)}",
    ]
    for a, b in L.covers:
        lines.append(f"cover {L.label(a)} < {L.label(b)}")
    for a in range(L.n):
        for b in range(a, L.n):
            if a == L.top or b == L.top:
                continue  # implied by the identity axiom
            lines.append(f"mul {L.label(a)} * {L.label(b)} = {L.label(L.mul(a, b))}")
    return "\n".join(lines) + "\n"


def to_dot(L: FiniteMultiplicativeLattice) -> str:
    """Hasse diagram as Graphviz DOT, drawn upward from the bottom element.

    The name and every label become quoted IDs, with backslash and double
    quote escaped by a backslash.
    """
    name, *ids = (
        '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in (L.name, *L.labels)
    )
    lines = [f"digraph {name} {{", "  rankdir=BT;", *(f"  {i};" for i in ids)]
    lines += (f"  {ids[a]} -> {ids[b]};" for a, b in L.covers)
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- corpus ------------------------------------------------------------------


class CorpusEntry(NamedTuple):
    lattice: FiniteMultiplicativeLattice
    role: str


class Corpus:
    """Lattices with their roles; a corpus compares and hashes by its entries.

    ``_memo`` is filled by ``_per_lattice`` functions (the hunt index) and is
    not part of the value.
    """

    def __init__(self, entries: tuple[CorpusEntry, ...]):
        self.entries = entries
        self._memo = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Corpus({self.entries!r})"

    def lattices(self) -> tuple[FiniteMultiplicativeLattice, ...]:
        return tuple(e.lattice for e in self.entries)

    def names(self) -> tuple[str, ...]:
        return tuple(e.lattice.name for e in self.entries)

    def get(self, name: str) -> FiniteMultiplicativeLattice | None:
        for e in self.entries:
            if e.lattice.name == name:
                return e.lattice
        return None

    def extended(self, lattice: FiniteMultiplicativeLattice, role: str) -> "Corpus":
        return Corpus(self.entries + (CorpusEntry(lattice, role),))

    def to_dict(self) -> dict:
        return {
            "lattices": [
                {"name": e.lattice.name, "role": e.role, "text": serialize(e.lattice)}
                for e in self.entries
            ]
        }


def default_corpus() -> Corpus:
    """The built-in verification corpus.

    Mod-n ideal lattices for a mix of prime powers and composites (Z8/Z27 are
    an isomorphic pair, Z24/Z30/Z8 carry the golden separating elements),
    short chains, and the four-element boolean frame.
    """
    entries = [
        CorpusEntry(zn_ideal_lattice(4), "smallest quasi-local Noether witness"),
        CorpusEntry(zn_ideal_lattice(8), "golden separating element (4)"),
        CorpusEntry(zn_ideal_lattice(12), "mixed prime factorization"),
        CorpusEntry(zn_ideal_lattice(16), "longer prime-power chain"),
        CorpusEntry(zn_ideal_lattice(24), "golden separating element (4)"),
        CorpusEntry(zn_ideal_lattice(27), "isomorphic partner of Z8"),
        CorpusEntry(zn_ideal_lattice(30), "squarefree; every element idempotent"),
        CorpusEntry(zn_ideal_lattice(36), "square of a composite"),
        CorpusEntry(chain_frame(1), "two-element domain witness"),
        CorpusEntry(chain_frame(2), "three-element chain, meet multiplication"),
        CorpusEntry(chain_frame(3), "four-element chain, meet multiplication"),
        CorpusEntry(boolean_frame(2), "distributive non-chain frame"),
    ]
    return Corpus(tuple(entries))
