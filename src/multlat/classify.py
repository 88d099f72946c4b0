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
over the proper elements for each (delta table, phi table or None, k): the
report's columns, the harness rows and hunt all read it through
``_entry``, and it is freed with the lattice.  The public wrappers below
are direct scans of one element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import and_, ne

from .derived import _idempotent_violation, radical
from .lattice import FiniteMultiplicativeLattice, _bits, _leq_mask, _mask, _per_lattice
from .maps import Expansion, PhiMap, make_delta, make_phi


def _require_proper(L: FiniteMultiplicativeLattice, p: int) -> None:
    if p == L.top:
        raise ValueError(
            f"{L.label(p)} is the top of {L.name}; primality needs a proper element"
        )


def _excuse(phi: PhiMap, p: int) -> int | None:
    """phi(p), below which products are excused; None for the none kind."""
    return None if phi.none else phi.table[p]


def _first_pair(L, target, excuse, row_skip, col_skip):
    """First (a, b) with ab <= target, ab !<= excuse, a !<= row_skip, b !<= col_skip.

    By residuation ab <= t iff b <= (t : a), so row a's violating columns are
    the down-set of (target : a) minus those of (excuse : a) and col_skip;
    b is its lowest set bit.  excuse None excuses nothing.  A top target is
    rejected; p^k is the top exactly when p is.
    """
    _require_proper(L, target)
    down, res = L.down_sets, L._residual_table
    excused = res[excuse] if excuse is not None else None
    skipped, keep = down[row_skip], ~down[col_skip]
    for a, t in enumerate(res[target]):
        if skipped >> a & 1:
            continue
        m = down[t] & keep & (~down[excused[a]] if excused is not None else -1)
        if m:
            return a, (m & -m).bit_length() - 1
    return None


def prime_violation(L, p):
    return _first_pair(L, p, None, p, p)


def primary_violation(L, p):
    return _first_pair(L, p, None, p, radical(L, p))


def delta_primary_violation(L, delta: Expansion, p):
    return _first_pair(L, p, None, p, delta.table[p])


def phi_prime_violation(L, phi: PhiMap, p):
    return _first_pair(L, p, _excuse(phi, p), p, p)


def phi_primary_violation(L, phi: PhiMap, p):
    return _first_pair(L, p, _excuse(phi, p), p, radical(L, p))


def phi_delta_primary_violation(L, delta: Expansion, phi: PhiMap, p):
    """First (a, b) with ab <= p, ab not excused, a !<= p, b !<= delta(p)."""
    return _first_pair(L, p, _excuse(phi, p), p, delta.table[p])


def _check_potency(k: int) -> None:
    if k < 2:
        raise ValueError(f"potency exponent must be >= 2, got {k}")


def n_potent_violation(L, delta: Expansion, p, k: int):
    """First (a, b) with ab <= p^k but a !<= p and b !<= delta(p); k >= 2."""
    _check_potency(k)
    return _first_pair(L, L.power(p, k), None, p, delta.table[p])


def compact_pair_violation(L, delta: Expansion, phi: PhiMap, q):
    """Pair-swapped form: rs <= q unexcused implies s <= q or r <= delta(q)."""
    return _first_pair(L, q, _excuse(phi, q), delta.table[q], q)


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
def _kernel_entry(L, deltas, excuses, k):
    """The entry of phi-delta-primary with target q^k: excuses None is the none
    kind.  Keyed by the tables themselves, so two maps with one tag never
    share an entry and equal maps always do."""
    return _pass(L, lambda q: _first_pair(
        L, L.power(q, k), None if excuses is None else excuses[q], q, deltas[q]
    ))


def _entry(L, delta: Expansion, phi: PhiMap | None = None, k: int | None = None):
    """The store's entry of phi-delta-primary (phi None or the none kind:
    delta-primary), or with k of k-potent delta-primary."""
    if k is not None:
        _check_potency(k)
    return _kernel_entry(L, delta.table, None if phi is None or phi.none else phi.table, k or 1)


@_per_lattice
def _idempotent_entry(L):
    """The entry of idempotence, whose witness is (q, q^2)."""
    return _pass(L, lambda q: _idempotent_violation(L, q))


@_per_lattice
def _delta_masks(L, deltas):
    """Per q, the a at which characterizations A and B fail when (q:a) differs
    from (phi(q):a): for A the a !<= deltas[q] with (q:a) != q, for B the
    a !<= q with (q:a) !<= deltas[q]."""
    down, fails_a, fails_b = L.down_sets, [], []
    for q, (row, d) in enumerate(zip(L._residual_table, deltas)):
        fails_a.append(_mask(map(q.__ne__, row)) & ~down[d])
        fails_b.append(~down[q] & ~_leq_mask(L, row, repeat(d)))
    return tuple(fails_a), tuple(fails_b)


@_per_lattice
def _phi_masks(L, excuses):
    """Per q, the a with (q:a) != (excuses[q]:a); excuses None is the none kind,
    whose (phi(q):a) reads bottom."""
    res = L._residual_table
    others = map(res.__getitem__, excuses) if excuses else (repeat(L.bottom) for _ in res)
    return tuple(_mask(map(ne, row, other)) for row, other in zip(res, others))


def characterization_failures(L, delta: Expansion, phi: PhiMap):
    """Per element q, as bitmasks over a, where characterizations A and B fail."""
    split = _phi_masks(L, None if phi.none else phi.table)
    return tuple(tuple(map(and_, part, split)) for part in _delta_masks(L, delta.table))


def characterization_A_witness(L, delta: Expansion, phi: PhiMap, q):
    """First a with a !<= delta(q) where (q:a) is neither q nor (phi(q):a)."""
    _require_proper(L, q)
    return next(_bits(characterization_failures(L, delta, phi)[0][q]), None)


def characterization_B_witness(L, delta: Expansion, phi: PhiMap, q):
    """First a with a !<= q where (q:a) !<= delta(q) and (q:a) != (phi(q):a)."""
    _require_proper(L, q)
    return next(_bits(characterization_failures(L, delta, phi)[1][q]), None)


def residual_characterization_A(L, delta, phi, q) -> bool:
    return characterization_A_witness(L, delta, phi, q) is None


def residual_characterization_B(L, delta, phi, q) -> bool:
    return characterization_B_witness(L, delta, phi, q) is None


@dataclass(frozen=True)
class ClassificationRecord:
    """Flags for one proper element; every false flag carries a witness."""

    element: str
    flags: dict[str, bool] = field(compare=False)
    witnesses: dict[str, tuple[str, ...]] = field(compare=False)

    def to_dict(self) -> dict:
        return {
            "element": self.element,
            "flags": dict(self.flags),
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


@dataclass(frozen=True)
class ClassificationReport:
    lattice: str
    delta: str
    phi: str
    records: tuple[ClassificationRecord, ...]
    # (flag, header) per column, in table order: the text table's layout
    columns: tuple[tuple[str, str], ...] = field(default=(), compare=False)

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

    def text_table(self) -> str:
        """One row of Y/. cells per element, then every witness, column by column."""
        width = max([len("element")] + [len(r.element) for r in self.records])
        header = f"{'element':<{width}} " + " ".join(h for _, h in self.columns)
        lines = [
            f"lattice {self.lattice}  delta={self.delta}  phi={self.phi}",
            header,
            "-" * len(header),
        ]
        for rec in self.records:
            cells = (f"{'Y' if rec.flags[k] else '.':^{len(h)}}" for k, h in self.columns)
            lines.append(f"{rec.element:<{width}} " + " ".join(cells))
        witness_lines = [
            f"  {rec.element} fails {key.replace('_', '-')}: ({pair[0]}, {pair[1]})"
            for rec in self.records
            for key, _ in self.columns
            if (pair := rec.witnesses.get(key))
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
    d0, d1 = make_delta(L, "d0"), make_delta(L, "d1")
    # (flag, header, verdict entry), in column order
    columns = [
        ("prime", "prime", _entry(L, d0)),
        ("primary", "primary", _entry(L, d1)),
        ("delta_primary", "d-primary", _entry(L, delta)),
        ("weakly_delta_primary", "w-d-prim", _entry(L, delta, make_phi(L, "phi0"))),
        ("phi_prime", "phi-prime", _entry(L, d0, phi)),
        ("phi_primary", "phi-primary", _entry(L, d1, phi)),
        ("phi_delta_primary", "phi-d-prim", _entry(L, delta, phi)),
        *((f"{k}_potent_delta_primary", f"{k}-potent", _entry(L, delta, None, k))
          for k in potency),
        ("2_potent_d0_primary", "2-pot-d0", _entry(L, d0, None, 2)),
        ("idempotent", "idem", _idempotent_entry(L)),
    ]
    records = []
    for p in L.proper_elements:
        found = {flag: entry[2][p] for flag, _, entry in columns}
        flags = {flag: pair is None for flag, pair in found.items()}
        witnesses = {flag: tuple(map(L.label, pair)) for flag, pair in found.items() if pair}
        records.append(ClassificationRecord(L.label(p), flags, witnesses))
    headers = tuple((flag, header) for flag, header, _ in columns)
    return ClassificationReport(L.name, delta.tag, phi.tag, tuple(records), headers)
