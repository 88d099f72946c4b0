"""Primality predicates for proper elements and their residual characterizations.

Every predicate quantifies over all ordered pairs of the carrier (in a finite
lattice every element is compact, so compact-pair and all-pair readings
coincide) and rejects the top element: primality of an improper element is a
caller error, not a false answer.  False answers come with the
lexicographically first violating pair, which makes reports deterministic.
The pair scans read rows off the residual table, so they assume a lattice
that passes ``validate``.  Every predicate is one scan, ``_first_pair``.  The
paper's notions specialize phi-delta-primary with target p^k (prime is
delta = id, primary delta = radical, delta-primary phi = none, k-potent
k >= 2), so one verdict store, ``_kernel_entry``, keeps per lattice one pass
over the proper elements for each tuple of the scan's arguments: the keys
(``maps.key_on``) of the row skip, the column skip and the excuse phi, None
for the none kind, and the potency k of the target q^k.  The definition is
the entry (identity, delta, phi, k) and the compact-pair form, with the skips
swapped, the entry (delta, identity, phi, 1); the report's columns, the
harness rows, hunt and the public per-element functions read them through
``_entry`` and ``_compact_pair_entry``, and a first read fills the whole
entry.  The store is freed with the lattice.  Under the entries, ``_scans``
keeps one ``_first_pair`` result per lattice for each distinct (target,
excuse, row_skip, col_skip), so entries whose arguments coincide at an
element share that scan: the k-potent columns once p^k stabilizes, prime
and primary at a radical p, 2-potent d0 at an idempotent p, and the
compact-pair form and the definition wherever delta(q) = q.  Only scans
with identical arguments are shared; no verdict is derived from another
predicate's.  Beside the store, the masks of the elements at which the
residual characterizations hold are kept per lattice under the (delta,
phi) keys.

A scan reads its rows in two phases.  G is the join-irreducibles J and the
join of each incomparable pair of them.  Phase 1 reads the rows g of G in
ascending order, skipping those below row_skip; if none violates there is
no violation.  Otherwise phase 2 reads, in index order, the rows below the
first violating g in index that are neither in G nor below row_skip, and
the first violating one is the witness row, or g itself if none is.  Every
row before the witness row is read or is a passing row of G, so the pair is
still the lexicographically first.  Phase 1 decides the verdict: if (a, b)
violates, a !<= row_skip gives some j1 in J with j1 <= a and j1 !<= row_skip.
As ab is the join of the jb over the j in J below a and ab !<= excuse, some
j2 <= a in J has j2 b !<= excuse.  So (j1 v j2, b) violates too, and
j1 v j2 is in G.  The proof needs products that commute, are monotone and
distribute over joins: a lattice that passes ``validate``.
"""

from __future__ import annotations

from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import and_, ne, not_
from typing import NamedTuple

from .derived import _idempotent_violation
from .lattice import FiniteMultiplicativeLattice, _bits, _leq_mask, _mask, _per_lattice
from .maps import IDENTITY, Expansion, PhiMap, key_on, key_table, make_delta, make_phi


def _require_proper(L: FiniteMultiplicativeLattice, p: int) -> None:
    if p == L.top:
        raise ValueError(f"{L.label(p)} is the top of {L.name}; primality needs a proper element")


# The stock map of a kind on L, for the report, the wrappers, the harness and hunt.
_delta, _phi = _per_lattice(make_delta), _per_lattice(make_phi)


@_per_lattice
def _row_set(L):
    """G, the rows a first-pair scan reads first, ascending, and G as a bitmask:
    the join-irreducibles and the join of each incomparable pair of them."""
    up, down, ji = L.up_sets, L.down_sets, L.join_irreducibles
    owner = {m: k for k, m in enumerate(up)}
    joins = later = 0  # later: the join-irreducibles above j in index
    for j in reversed(ji):
        # each later one incomparable with j: none on a chain
        for k in _bits(later & ~up[j] & ~down[j]):
            g = owner.get(up[j] & up[k])  # the join's up-set is the common up-set
            joins |= 1 << (L.lub(j, k) if g is None else g)
        later |= 1 << j
    rows = joins | later
    return tuple(_bits(rows)), rows


def _first_pair(L, target, excuse, row_skip, col_skip):
    """First (a, b) with ab <= target, ab !<= excuse, a !<= row_skip, b !<= col_skip.

    By residuation ab <= t iff b <= (t : a), so row a's violating columns are
    the down-set of (target : a) minus those of (excuse : a) and col_skip;
    b is its lowest set bit.  excuse None excuses nothing.  The target is
    proper.  The rows are read in the two phases of the module docstring.
    """
    down, res = L.down_sets, L._residual_table
    rows, row_mask = _row_set(L)
    excused = res[excuse] if excuse is not None else None
    residuals, skipped, keep = res[target], down[row_skip], ~down[col_skip]
    for g in rows:  # phase 1
        if skipped >> g & 1:
            continue
        m = down[residuals[g]] & keep & (~down[excused[g]] if excused is not None else -1)
        if m:
            break
    else:
        return None
    # phase 2, lowest index first; _bits inlined, as a generator per scan
    # costs small lattices more than their scans save
    rest = ~(row_mask | skipped) & ((1 << g) - 1)
    while rest:
        low = rest & -rest
        rest ^= low
        a = low.bit_length() - 1
        ma = down[residuals[a]] & keep & (~down[excused[a]] if excused is not None else -1)
        if ma:
            return a, (ma & -ma).bit_length() - 1
    return g, (m & -m).bit_length() - 1


def _pair(L, p, entry, *args):
    """p's first violating pair in the store entry of args; the top is rejected first."""
    _require_proper(L, p)
    return entry(L, *args)[2][p]


def prime_violation(L, p):
    return _pair(L, p, _entry, _delta(L, "d0"))


def primary_violation(L, p):
    return _pair(L, p, _entry, _delta(L, "d1"))


def delta_primary_violation(L, delta: Expansion, p):
    return _pair(L, p, _entry, delta)


def phi_prime_violation(L, phi: PhiMap, p):
    return _pair(L, p, _entry, _delta(L, "d0"), phi)


def phi_primary_violation(L, phi: PhiMap, p):
    return _pair(L, p, _entry, _delta(L, "d1"), phi)


def phi_delta_primary_violation(L, delta: Expansion, phi: PhiMap, p):
    """First (a, b) with ab <= p, ab not excused, a !<= p, b !<= delta(p)."""
    return _pair(L, p, _entry, delta, phi)


def _check_potency(k: int) -> None:
    if k < 2:
        raise ValueError(f"potency exponent must be >= 2, got {k}")


def n_potent_violation(L, delta: Expansion, p, k: int):
    """First (a, b) with ab <= p^k but a !<= p and b !<= delta(p); k >= 2."""
    _check_potency(k)
    return _pair(L, p, _entry, delta, None, k)


def compact_pair_violation(L, delta: Expansion, phi: PhiMap, q):
    """Pair-swapped form: rs <= q unexcused implies s <= q or r <= delta(q)."""
    return _pair(L, q, _compact_pair_entry, delta, phi)


def is_prime(L, p) -> bool:
    return prime_violation(L, p) is None


def is_primary(L, p) -> bool:
    return primary_violation(L, p) is None


def is_delta_primary(L, delta, p) -> bool:
    return delta_primary_violation(L, delta, p) is None


def is_phi_prime(L, phi, p) -> bool:
    return phi_prime_violation(L, phi, p) is None


def is_phi_primary(L, phi, p) -> bool:
    return phi_primary_violation(L, phi, p) is None


def is_phi_delta_primary(L, delta, phi, p) -> bool:
    return phi_delta_primary_violation(L, delta, phi, p) is None


def is_n_potent_delta_primary(L, delta, p, k) -> bool:
    return n_potent_violation(L, delta, p, k) is None


def _pass(L, violation):
    """One pass of violation over L's proper elements: the elements that pass
    as a bitmask and as one flag per element (False at the top), and per
    element its first violating pair (None where there is none)."""
    pairs: list[tuple[int, int] | None] = [None] * L.n
    flags = [False] * L.n
    for q in L.proper_elements:
        pair = pairs[q] = violation(q)
        flags[q] = pair is None
    return _mask(flags), tuple(flags), tuple(pairs)


@_per_lattice
def _scans(L):
    """L's ``_first_pair`` results, one per distinct (target, excuse, row_skip,
    col_skip) of a kernel entry, keyed by those four as one int."""
    return {}


@_per_lattice
def _kernel_entry(L, rows, cols, phi, k):
    """The entry of the scan whose arguments at q are target q^k, excuse
    phi(q), row skip rows(q) and column skip cols(q), for the maps so keyed:
    two maps with one tag never share an entry and equal maps always do.  An
    element whose scan arguments another entry already had reads its scan."""
    scans, n = _scans(L), L.n
    rows, cols, excuses = key_table(L, rows), key_table(L, cols), key_table(L, phi)

    def violation(q):
        target, excuse = L.power(q, k), None if excuses is None else excuses[q]
        row_skip, col_skip = rows[q], cols[q]
        key = ((target * (n + 1) + (n if excuse is None else excuse)) * n + row_skip) * n + col_skip
        try:
            return scans[key]
        except KeyError:
            pair = scans[key] = _first_pair(L, target, excuse, row_skip, col_skip)
            return pair

    return _pass(L, violation)


def _entry(L, delta: Expansion, phi: PhiMap | None = None, k: int | None = None):
    """The store's entry of phi-delta-primary (phi None or the none kind:
    delta-primary), or with k of k-potent delta-primary: rows skip q, columns
    delta(q)."""
    if k is not None:
        _check_potency(k)
    excuse = None if phi is None else key_on(L, phi)
    return _kernel_entry(L, IDENTITY, key_on(L, delta), excuse, k or 1)


def _compact_pair_entry(L, delta: Expansion, phi: PhiMap):
    """The store's entry of the compact-pair form: rows skip delta(q), columns
    q.  Where delta(q) = q its scan is the definition's."""
    return _kernel_entry(L, key_on(L, delta), IDENTITY, key_on(L, phi), 1)


@_per_lattice
def _idempotent_entry(L):
    """The entry of idempotence, whose witness is (q, q^2)."""
    return _pass(L, lambda q: _idempotent_violation(L, q))


@_per_lattice
def _delta_masks(L, delta):
    """Per q, the a at which characterizations A and B fail when (q:a) differs
    from (phi(q):a), for the expansion keyed delta: for A the a !<= delta(q)
    with (q:a) != q, for B the a !<= q with (q:a) !<= delta(q)."""
    down, fails_a, fails_b = L.down_sets, [], []
    for q, (row, d) in enumerate(zip(L._residual_table, key_table(L, delta))):
        fails_a.append(_mask(map(q.__ne__, row)) & ~down[d])
        fails_b.append(~down[q] & ~_leq_mask(L, row, repeat(d)))
    return tuple(fails_a), tuple(fails_b)


@_per_lattice
def _phi_masks(L, phi):
    """Per q, the a with (q:a) != (phi(q):a), for the phi keyed phi; under the
    none kind, keyed None, (phi(q):a) reads bottom."""
    res, excuses = L._residual_table, key_table(L, phi)
    others = map(res.__getitem__, excuses) if excuses else (repeat(L.bottom) for _ in res)
    return tuple(_mask(map(ne, row, other)) for row, other in zip(res, others))


def _failing(L, delta, phi):
    """For A, then B, the per-q masks of the a where the characterization
    fails, as an iterator, for the maps keyed delta and phi."""
    split = _phi_masks(L, phi)
    return (map(and_, part, split) for part in _delta_masks(L, delta))


def characterization_failures(L, delta: Expansion, phi: PhiMap):
    """Per element q, as bitmasks over a, where characterizations A and B fail."""
    return tuple(map(tuple, _failing(L, key_on(L, delta), key_on(L, phi))))


@_per_lattice
def _holder_masks(L, delta, phi):
    """The elements at which characterizations A and B hold, as two bitmasks."""
    return tuple(_mask(map(not_, part)) for part in _failing(L, delta, phi))


def _characterization_holders(L, delta: Expansion, phi: PhiMap):
    """The store's characterization masks: the q where A holds, and where B does."""
    return _holder_masks(L, key_on(L, delta), key_on(L, phi))


def _first_failure(L, delta: Expansion, phi: PhiMap, q, part: int):
    """The first a at which characterization A (part 0) or B (part 1) fails at q."""
    _require_proper(L, q)
    fails = _delta_masks(L, key_on(L, delta))[part][q] & _phi_masks(L, key_on(L, phi))[q]
    return next(_bits(fails), None)


def characterization_A_witness(L, delta: Expansion, phi: PhiMap, q):
    """First a with a !<= delta(q) where (q:a) is neither q nor (phi(q):a)."""
    return _first_failure(L, delta, phi, q, 0)


def characterization_B_witness(L, delta: Expansion, phi: PhiMap, q):
    """First a with a !<= q where (q:a) !<= delta(q) and (q:a) != (phi(q):a)."""
    return _first_failure(L, delta, phi, q, 1)


def residual_characterization_A(L, delta, phi, q) -> bool:
    return characterization_A_witness(L, delta, phi, q) is None


def residual_characterization_B(L, delta, phi, q) -> bool:
    return characterization_B_witness(L, delta, phi, q) is None


class ClassificationRecord(NamedTuple):
    """Flags for one proper element; every false flag carries a witness."""

    element: str
    flags: dict[str, bool]
    witnesses: dict[str, tuple[str, ...]]

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "flags": dict(self.flags),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


class ClassificationReport(NamedTuple):
    lattice: str
    delta: str
    phi: str
    # (flag, header) per column, in table order: the text table's layout
    columns: tuple[tuple[str, str], ...]
    # per column, its verdict store entry's pairs, shared: per element the first
    # violating pair or None.  The records, dict, table and JSON read them.
    pairs: tuple[tuple[tuple[int, int] | None, ...], ...]
    labels: tuple[str, ...]  # the lattice's, by element
    elements: tuple[int, ...]  # the proper elements, in order

    @property
    def records(self) -> tuple[ClassificationRecord, ...]:
        labels, columns = self.labels, tuple(zip(self.columns, self.pairs))
        return tuple(
            ClassificationRecord(
                labels[p],
                {flag: pairs[p] is None for (flag, _), pairs in columns},
                {flag: (labels[pair[0]], labels[pair[1]])
                 for (flag, _), pairs in columns if (pair := pairs[p])},
            )
            for p in self.elements
        )

    def record(self, label: str) -> ClassificationRecord:
        for rec in self.records:
            if rec.element == label:
                return rec
        raise ValueError(f"no record for element {label!r}")

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "delta": self.delta,
            "phi": self.phi,
            "elements": [rec.to_dict() for rec in self.records],
        }

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_dict(), indent=2, sort_keys=True)``,
        written column by column in flag order: every item starts with a comma,
        which an element's first item drops."""
        quoted, flags, witnesses = list(map(_quote, self.labels)), [], []
        for (flag, _), pairs in sorted(zip(self.columns, self.pairs)):
            key = f",\n        {_quote(flag)}: "
            yes, no, pair_key = key + "true", key + "false", key + "[\n          "
            flags.append([yes if pairs[p] is None else no for p in self.elements])
            witnesses.append([
                "" if (pair := pairs[p]) is None
                else f"{pair_key}{quoted[pair[0]]},\n          {quoted[pair[1]]}\n        ]"
                for p in self.elements
            ])
        rows = zip(self.elements, map("".join, zip(*flags)), map("".join, zip(*witnesses)))
        records = ",".join(
            f'\n    {{\n      "element": {quoted[p]},\n      "flags": {{{f[1:]}\n      }},'
            f'\n      "witnesses": ' + ("{" + w[1:] + "\n      }" if w else "{}") + "\n    }"
            for p, f, w in rows
        )
        return (
            f'{{\n  "delta": {_quote(self.delta)},\n  "elements": '
            + ("[" + records + "\n  ]" if records else "[]")
            + f',\n  "lattice": {_quote(self.lattice)},\n  "phi": {_quote(self.phi)}\n}}'
        )

    def text_table(self) -> str:
        """One row of Y/. cells per element, then every witness, column by column."""
        labels, columns = self.labels, tuple(zip(self.columns, self.pairs))
        width = max([len("element")] + [len(labels[p]) for p in self.elements])
        header = f"{'element':<{width}} " + " ".join(h for _, h in self.columns)
        lines = [
            f"lattice {self.lattice}  delta={self.delta}  phi={self.phi}",
            header,
            "-" * len(header),
        ]
        for p in self.elements:
            cells = (f"{'Y' if pairs[p] is None else '.':^{len(h)}}" for (_, h), pairs in columns)
            lines.append(f"{labels[p]:<{width}} " + " ".join(cells))
        witness_lines = [
            f"  {labels[p]} fails {flag.replace('_', '-')}: ({labels[pair[0]]}, {labels[pair[1]]})"
            for p in self.elements
            for (flag, _), pairs in columns
            if (pair := pairs[p])
        ]
        if witness_lines:
            lines.append("witnesses:")
            lines.extend(witness_lines)
        return "\n".join(lines)


def classification_report(
    L: FiniteMultiplicativeLattice,
    delta: Expansion,
    phi: PhiMap,
    potency: tuple[int, ...] = (2, 3, 4),
) -> ClassificationReport:
    """Classify every proper element under the given delta and phi.

    Alongside the ambient-delta potency flags, 2_potent_d0_primary is always
    included because separations against the identity expansion are the ones
    the golden examples need.
    """
    for k in potency:
        _check_potency(k)
        if potency.count(k) > 1:
            raise ValueError(f"potency exponent {k} is repeated")
    d0, d1 = _delta(L, "d0"), _delta(L, "d1")
    # (flag, header, verdict entry), in column order
    columns = [
        ("prime", "prime", _entry(L, d0)),
        ("primary", "primary", _entry(L, d1)),
        ("delta_primary", "d-primary", _entry(L, delta)),
        ("weakly_delta_primary", "w-d-prim", _entry(L, delta, _phi(L, "phi0"))),
        ("phi_prime", "phi-prime", _entry(L, d0, phi)),
        ("phi_primary", "phi-primary", _entry(L, d1, phi)),
        ("phi_delta_primary", "phi-d-prim", _entry(L, delta, phi)),
        *((f"{k}_potent_delta_primary", f"{k}-potent", _entry(L, delta, None, k))
          for k in potency),
        ("2_potent_d0_primary", "2-pot-d0", _entry(L, d0, None, 2)),
        ("idempotent", "idem", _idempotent_entry(L)),
    ]
    return ClassificationReport(
        L.name, delta.tag, phi.tag, tuple((flag, header) for flag, header, _ in columns),
        tuple(entry[2] for *_, entry in columns), L.labels, L.proper_elements,
    )
