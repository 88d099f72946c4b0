"""Machine-checkable property suite for the phi-delta-primary theory.

Every registry entry quantifies a statement exhaustively over a corpus of
finite lattices and a configured set of expansion (delta) and phi maps, which
reach a row only through ``_DOMAINS``; a property's rows see no config.
Outcomes are three-valued: FAIL when a violation exists, VACUOUS when the
hypothesis never fired (reported loudly; silent vacuity is this harness's
main failure mode), PASS otherwise.

A property is decided a row of elements at a time.  A row fixes every
binding but the last, the element, and holds as bitmasks over element
indices the elements it ranges over and those where the hypothesis and the
conclusion hold.  A condition that does not read the element is decided
once per distinct value of the bindings it reads: a property with more rows
than such values reads them once per lattice into lists its rows index, and
a condition on one map is kept per lattice under the map's key.  The masks
come from the per-lattice verdict store in
``classify``, keyed by the scan's arguments (the keys of the row- and
column-skip maps and of phi, and the potency), and from the characterization
masks kept beside it under the (delta, phi) keys; rows read both with their
maps and scan no element themselves.  ``hunt`` reads the store once per
predicate name into one bitmask over the whole corpus.
``tests/oracle.py`` keeps the per-instance statements the rows are checked
against.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import product
from operator import and_, eq
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .classify import (
    _characterization_holders,
    _compact_pair_entry,
    _delta,
    _entry,
    _idempotent_entry,
    _kernel_entry,
    _phi,
    _require_proper,
)
from .constructions import Corpus, default_corpus
from .derived import (
    has_restricted_cancellation,
    is_nilpotent,
    power_stabilization,
    structure_profile,
)
from .lattice import FiniteMultiplicativeLattice, _bits, _gather, _leq_mask, _mask, _per_lattice
from .maps import (
    IDENTITY,
    Expansion,
    Isomorphism,
    PhiMap,
    enumerate_isomorphisms,
    is_monotone,
    key_table,
    map_leq,
)


class HarnessConfig(NamedTuple):
    delta_kinds: tuple[str, ...] = ("d0", "d1")
    phi_kinds: tuple[str, ...] = ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega")
    potency: tuple[int, ...] = (2, 3, 4)
    witness_cap: int = 10


EXPECTED_VACUOUS = ("T12",)  # no finite lattice meets T12's hypothesis (README)

ALL = -1  # the mask of every element: a condition that always holds


class Row(NamedTuple):
    """One assignment of a property's bindings but the element: ``values`` in
    binding order, and as bitmasks over element indices the elements the row
    ranges over and those where the hypothesis and the conclusion hold.
    ``weights[e]`` is the (scanned, hits) that element e stands for; None
    counts (1, 1)."""

    values: tuple
    domain: int
    hypothesis: int
    conclusion: int
    weights: Sequence[tuple[int, int]] | None = None


Rows = Callable[[FiniteMultiplicativeLattice, Corpus, HarnessConfig], Iterable[Row]]


class TheoremProperty(NamedTuple):
    """A statement quantified over ``binding``, whose last name is the element.

    ``rows(L, corpus, config)`` yields one Row per assignment of the other
    names, in binding order; an element of a row is an instance, and it
    violates the property where it is in the domain and the hypothesis but
    not the conclusion.
    """

    id: str
    description: str
    binding: tuple[str, ...]
    rows: Rows
    clause: str = "conclusion"


class Witness(NamedTuple):
    property_id: str
    lattice: str
    delta: str
    phi: str
    bindings: dict[str, str]
    clause: str = "conclusion"

    def to_dict(self) -> dict:
        return {
            "property": self.property_id,
            "lattice": self.lattice,
            "delta": self.delta,
            "phi": self.phi,
            "bindings": dict(self.bindings),
            "clause": self.clause,
        }


class PropertyResult(NamedTuple):
    id: str
    description: str
    instances_scanned: int
    hypothesis_hits: int
    violations: int
    witnesses: tuple[Witness, ...]

    @property
    def status(self) -> str:
        if self.violations:
            return "FAIL"
        return "VACUOUS" if self.hypothesis_hits == 0 else "PASS"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "status": self.status,
            "instances_scanned": self.instances_scanned,
            "hypothesis_hits": self.hypothesis_hits,
            "violations": self.violations,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


class HarnessReport(NamedTuple):
    results: tuple[PropertyResult, ...]

    def result(self, prop_id: str) -> PropertyResult:
        for r in self.results:
            if r.id == prop_id:
                return r
        raise KeyError(prop_id)

    def unexpected_vacuous(self, expected: Iterable[str] = ()) -> tuple[str, ...]:
        allowed = set(expected)
        return tuple(
            r.id for r in self.results if r.status == "VACUOUS" and r.id not in allowed
        )

    def ok(self, expected_vacuous: Iterable[str] = ()) -> bool:
        if any(r.violations for r in self.results):
            return False
        return not self.unexpected_vacuous(expected_vacuous)

    def to_dict(self) -> dict:
        return {"results": [r.to_dict() for r in self.results]}

    def text_table(self) -> str:
        header = f"{'id':<5} {'status':<8} {'scanned':>8} {'hits':>7} {'violations':>11}"
        rows = [header, "-" * len(header)]
        for r in self.results:
            rows.append(
                f"{r.id:<5} {r.status:<8} {r.instances_scanned:>8} "
                f"{r.hypothesis_hits:>7} {r.violations:>11}"
            )
        return "\n".join(rows)


# -- per-lattice machinery, kept on the lattice --------------------------------


# The isomorphisms from one lattice to another.
_isomorphisms = _per_lattice(enumerate_isomorphisms)


def _deltas(L, config) -> tuple[Expansion, ...]:
    return tuple(_delta(L, k) for k in config.delta_kinds)


def _phis(L, config) -> tuple[PhiMap, ...]:
    return tuple(_phi(L, k) for k in config.phi_kinds)


def _pdp(L, delta: Expansion, phi: PhiMap | None = None) -> int:
    """The phi-delta-primary proper elements (phi None: delta-primary)."""
    return _entry(L, delta, phi)[0]


@_per_lattice
def _chain_counts(L, holders: int) -> dict[int, tuple[int, int]]:
    """Per proper e, how many chains of proper elements have e as largest member,
    and how many of those lie in the bitmask holders: c(e) = 1 + the sum of
    c(d) over d < e, h(e) the same over holders d, or 0 unless e holds."""
    down = L.down_sets
    counts: dict[int, tuple[int, int]] = {}
    for e in sorted(L.proper_elements, key=lambda e: down[e].bit_count()):
        below = [counts[d] for d in _bits(down[e] & ~(1 << e))]
        chains = 1 + sum(n for n, _ in below)
        counts[e] = (chains, 1 + sum(n for _, n in below) if holders >> e & 1 else 0)
    return counts


@_per_lattice
def _cancelling(L) -> int:
    """T12's conditions on q alone: in a Noether lattice, the nonzero
    non-nilpotent q with the restricted cancellation law."""
    if not structure_profile(L).noether:
        return 0
    return _mask(
        q not in (L.top, L.bottom)
        and not is_nilpotent(L, q)
        and has_restricted_cancellation(L, q)
        for q in range(L.n)
    )


# -- masks ---------------------------------------------------------------------


def _proper(L) -> int:
    return ((1 << L.n) - 1) ^ (1 << L.top)


def _pull(flags: Sequence[bool], table: Sequence[int]) -> int:
    """The elements x with flags[table[x]]."""
    return _mask(_gather(table)(flags))


def _agree(first: int, *rest: int) -> int:
    """The elements on which every mask says the same."""
    agree = ALL
    for mask in rest:
        agree &= ~(first ^ mask)
    return agree


@_per_lattice
def _every_phin(L, delta: int) -> int:
    """The elements that are phin-delta-primary for every n >= 2, delta a map's key."""
    # p^n for n beyond p's stabilization index s repeats p^s, so phin(p) is
    # phi(max(2, s))(p) and p's verdict under phin is the one under that map:
    # n in 2..the largest s decides "for all n >= 2" at every p at once.
    last = max(2, *(power_stabilization(L, p) for p in range(L.n)))
    every = ALL
    for n in range(2, last + 1):
        every &= _kernel_entry(L, IDENTITY, delta, _phi(L, f"phi{n}").key, 1)[0]
    return every


@_per_lattice
def _phi_conditions(L, phi: int | None) -> tuple[int, int]:
    """The q with q^2 <= phi(q), and those with radical(q) = radical(phi(q)), phi a key."""
    images, rad = key_table(L, phi) or (L.bottom,) * L.n, L._radical_table  # none: the bottom
    return _leq_mask(L, _phi(L, "phi2").table, images), _mask(map(eq, rad, _gather(images)(rad)))


@_per_lattice
def _radical_below(L, delta: int) -> int:
    """The p with radical(p) <= delta(p), delta a key; where also delta(p) <=
    radical(p), antisymmetry makes the two equal."""
    return _leq_mask(L, L._radical_table, key_table(L, delta))


# -- the registry --------------------------------------------------------------


# What each binding name but the element ranges over, given the lattice and
# the config: the one source of every quantified map, for the rows ``add``
# builds and for those ``add_rows`` registers.
_DOMAINS = {
    "delta": _deltas,
    "gamma": _deltas,
    "phi": _phis,
    "g1": _phis,
    "g2": _phis,
    "n": lambda L, config: config.potency,
    "k": lambda L, config: config.potency,
}


def _domains(L, config, *names: str) -> list[Sequence]:
    """What each of the binding names ranges over."""
    return [_DOMAINS[name](L, config) for name in names]


def registry() -> tuple[TheoremProperty, ...]:
    """One machine-checkable property per theorem, corollary, and example."""
    props: list[TheoremProperty] = []

    def add(id, description, binding, decide, clause):
        # decide(L, *values) gives the (hypothesis, conclusion) masks, and optionally
        # the weights, of one assignment of binding[:-1].  It sees no config: its
        # maps reach it only as values, drawn from _DOMAINS.
        def decided(L, corpus, config) -> Iterator[Row]:
            domain = _proper(L)
            for values in product(*_domains(L, config, *binding[:-1])):
                yield Row(values, domain, *decide(L, *values))

        props.append(TheoremProperty(id, description, binding, decided, clause))

    def add_rows(id, description, binding, clause):
        # rows(L, corpus, config) yields the rows itself, its maps drawn from _DOMAINS
        return lambda rows: props.append(TheoremProperty(id, description, binding, rows, clause))

    add(
        "T01",
        "phi-d0-primary if and only if phi-prime",
        ("phi", "p"),
        # phi-prime is the kernel at delta = id, so both sides are one entry and
        # agree everywhere; tests/oracle.py checks the statement with its
        # phi-prime scan, and T04 reads the entry
        lambda L, phi: (ALL, ALL),
        "phi-d0-primary <=> phi-prime",
    )

    add(
        "T02",
        "phi-d1-primary if and only if phi-primary",
        ("phi", "p"),
        # phi-primary is the kernel at delta = radical: one entry for both sides
        lambda L, phi: (ALL, ALL),
        "phi-d1-primary <=> phi-primary",
    )

    @add_rows(
        "T03",
        "phi-delta-primary implies phi-gamma-primary when delta <= gamma",
        ("delta", "gamma", "phi", "p"),
        "phi-gamma-primary",
    )
    def t03(L, corpus, config):
        domain, (deltas, gammas, phis) = _proper(L), _domains(L, config, "delta", "gamma", "phi")
        hyps, concs = ([[_pdp(L, d, phi) for phi in phis] for d in ds] for ds in (deltas, gammas))
        for (delta, hyp), (gamma, conc) in product(zip(deltas, hyps), zip(gammas, concs)):
            below = map_leq(delta, gamma)
            for phi, h, c in zip(phis, hyp, conc):
                yield Row((delta, gamma, phi), domain, h if below else 0, c)

    add(
        "T04",
        "a prime element is phi-delta-primary for every expansion and phi",
        ("delta", "phi", "p"),
        lambda L, delta, phi: (_pdp(L, _delta(L, "d0")), _pdp(L, delta, phi)),
        "phi-delta-primary",
    )

    add(
        "T05",
        "definition, first residual characterization, and the compact-pair "
        "form agree",
        ("delta", "phi", "q"),
        lambda L, delta, phi: (ALL, _agree(
            _pdp(L, delta, phi),
            _characterization_holders(L, delta, phi)[0],
            _compact_pair_entry(L, delta, phi)[0],
        )),
        "definition <=> characterization-A <=> compact-pair form",
    )

    add(
        "T06",
        "definition and second residual characterization agree",
        ("delta", "phi", "q"),
        lambda L, delta, phi: (ALL, _agree(
            _pdp(L, delta, phi), _characterization_holders(L, delta, phi)[1]
        )),
        "definition <=> characterization-B",
    )

    def t07(L):
        prof = structure_profile(L)
        if not (prof.noether and prof.quasi_local):
            return 0, 0
        m = prof.maximal_elements[0]
        mm = L.power(m, 2)
        squares = _mask(sq == mm for sq in _phi(L, "phi2").table)
        return L.up_sets[mm] & L.down_sets[m] & squares, _pdp(L, _delta(L, "d1"), _phi(L, "phi2"))

    add(
        "T07",
        "in a quasi-local Noether lattice, p^2 = m^2 <= p <= m forces p to be "
        "phi2-d1-primary",
        ("p",),
        t07,
        "phi2-d1-primary",
    )

    @add_rows(
        "T08",
        "g1-delta-primary implies g2-delta-primary when g1 <= g2 pointwise",
        ("delta", "g1", "g2", "p"),
        "g2-delta-primary",
    )
    def t08(L, corpus, config):
        domain, (deltas, g1s, g2s) = _proper(L), _domains(L, config, "delta", "g1", "g2")
        below = [[map_leq(g1, g2) for g2 in g2s] for g1 in g1s]
        for delta in deltas:
            concs = [_pdp(L, delta, g2) for g2 in g2s]
            for g1, leqs in zip(g1s, below):
                hyp = _pdp(L, delta, g1)
                for g2, leq, conc in zip(g2s, leqs, concs):
                    yield Row((delta, g1, g2), domain, hyp if leq else 0, conc)

    @add_rows(
        "T09",
        "implication chain: delta-primary => phi0 => phiomega => phi(n+1) => "
        "phi(n) => phi2 (delta-primary throughout)",
        ("delta", "n", "p"),
        "each arrow of the chain",
    )
    def t09(L, corpus, config):
        domain, (deltas, ns) = _proper(L), _domains(L, config, "delta", "n")
        kinds = [("phi0", "phiomega", f"phi{n + 1}", f"phi{n}", "phi2") for n in ns]
        chains = [[_phi(L, kind) for kind in chain] for chain in kinds]
        for delta, (n, chain) in product(deltas, zip(ns, chains)):
            steps = [_pdp(L, delta)] + [_pdp(L, delta, phi) for phi in chain]
            arrows = reduce(and_, (~a | b for a, b in zip(steps, steps[1:])))
            yield Row((delta, n), domain, ALL, arrows)

    add(
        "T10",
        "phiomega-delta-primary iff phin-delta-primary for every n >= 2",
        ("delta", "p"),
        lambda L, delta: (
            ALL, _agree(_pdp(L, delta, _phi(L, "phiomega")), _every_phin(L, delta.key))
        ),
        "phiomega <=> all phin",
    )

    def t11(L, delta):
        prof = structure_profile(L)
        if not (prof.local_noether and prof.domain and prof.krull):
            return 0, 0
        return ALL, _agree(_every_phin(L, delta.key), _pdp(L, delta))

    add(
        "T11",
        "in a local Noether domain with all proper power-meets zero, "
        "phin-delta-primary for every n >= 2 iff delta-primary",
        ("delta", "p"),
        t11,
        "all phin <=> delta-primary",
    )

    @add_rows(
        "T12",
        "in a Noether lattice, a nonzero non-nilpotent element with the "
        "restricted cancellation law is phi-delta-primary (phi <= phi2, and "
        "likewise phi <= phin for n >= 2) iff delta-primary",
        ("delta", "phi", "q"),
        "phi-delta-primary <=> delta-primary",
    )
    def t12(L, corpus, config):
        domain, cancelling = _proper(L), _cancelling(L)
        deltas, phis = _domains(L, config, "delta", "phi")
        below = [bool(cancelling) and map_leq(phi, _phi(L, "phi2")) for phi in phis]
        for delta, (phi, leq) in product(deltas, zip(phis, below)):
            agree = _agree(_pdp(L, delta, phi), _pdp(L, delta)) if leq else 0
            yield Row((delta, phi), domain, cancelling if leq else 0, agree)

    def potent_rows(L, deltas, phis, ns, ks):
        # one row per (delta, phi, n, k) with k <= n; agree reads no n or k
        domain = _proper(L)
        below = [[map_leq(phi, _phi(L, f"phi{n}")) for n in ns] for phi in phis]
        for delta in deltas:
            potent, plain = [_entry(L, delta, None, k)[0] for k in ks], _pdp(L, delta)
            for phi, leqs in zip(phis, below):
                agree = _agree(_pdp(L, delta, phi), plain)
                for (n, leq), (k, hyp) in product(zip(ns, leqs), zip(ks, potent)):
                    if k <= n:
                        yield Row((delta, phi, n, k), domain, hyp if leq else 0, agree)

    @add_rows(
        "T13",
        "a 2-potent delta-primary element (the d0 form included) is "
        "phi-delta-primary for phi <= phi2 iff delta-primary",
        ("delta", "phi", "q"),
        "phi-delta-primary <=> delta-primary",
    )
    def t13(L, corpus, config):
        # T14 at n = k = 2, whatever the config's potency
        for row in potent_rows(L, *_domains(L, config, "delta", "phi"), (2,), (2,)):
            yield row._replace(values=row.values[:2])

    @add_rows(
        "T14",
        "for k <= n, a k-potent delta-primary element is phi-delta-primary "
        "for phi <= phin iff delta-primary",
        ("delta", "phi", "n", "k", "q"),
        "phi-delta-primary <=> delta-primary",
    )
    def t14(L, corpus, config):
        return potent_rows(L, *_domains(L, config, "delta", "phi", "n", "k"))

    add(
        "T15",
        "a phi-delta-primary q with q^2 not below phi(q) is delta-primary",
        ("delta", "phi", "q"),
        lambda L, delta, phi: (
            _pdp(L, delta, phi) & ~_phi_conditions(L, phi.key)[0], _pdp(L, delta)
        ),
        "delta-primary",
    )

    def t16(L, delta, phi):
        return _pdp(L, delta, phi) & ~_pdp(L, delta), _phi_conditions(L, phi.key)[0]

    add(
        "T16",
        "a phi-delta-primary q that is not delta-primary has q^2 <= phi(q)",
        ("delta", "phi", "q"),
        t16,
        "q^2 <= phi(q)",
    )

    add(
        "T17",
        "a phi-delta-primary q that is not delta-primary has "
        "radical(q) = radical(phi(q))",
        ("delta", "phi", "q"),
        lambda L, delta, phi: (
            _pdp(L, delta, phi) & ~_pdp(L, delta), _phi_conditions(L, phi.key)[1]
        ),
        "radical(q) = radical(phi(q))",
    )

    @add_rows(
        "T18",
        "a phi-delta-primary q with phi <= phi3 is phin-delta-primary for "
        "every n >= 2 and phiomega-delta-primary",
        ("delta", "phi", "q"),
        "phiomega and every phin",
    )
    def t18(L, corpus, config):
        domain, (deltas, phis) = _proper(L), _domains(L, config, "delta", "phi")
        below = [map_leq(phi, _phi(L, "phi3")) for phi in phis]
        for delta in deltas:
            every = _pdp(L, delta, _phi(L, "phiomega")) & _every_phin(L, delta.key)
            for phi, leq in zip(phis, below):
                yield Row((delta, phi), domain, _pdp(L, delta, phi) if leq else 0, every)

    add(
        "T19",
        "a phi0-delta-primary q that is not delta-primary has q^2 = 0",
        ("delta", "q"),
        # T16 at phi0: q^2 <= bottom is q^2 = bottom
        lambda L, delta: t16(L, delta, _phi(L, "phi0")),
        "q^2 = 0",
    )

    add(
        "T20",
        "a phi-delta-primary q whose phi(q) is delta-primary is delta-primary",
        ("delta", "phi", "q"),
        lambda L, delta, phi: (
            _pdp(L, delta, phi) & _pull(_entry(L, delta)[1], phi.table),
            _pdp(L, delta),
        ),
        "delta-primary",
    )

    def t21(L, delta, phi):
        # one element per join p, standing for the chains whose largest member is p
        primary = _pdp(L, delta, phi)
        return primary if is_monotone(phi) else 0, primary, _chain_counts(L, primary)

    add(
        "T21",
        "the join of a chain of phi-delta-primary elements is "
        "phi-delta-primary when phi is monotone",
        ("delta", "phi", "p"),
        t21,
        "join is phi-delta-primary",
    )

    @add_rows(
        "T22",
        "residuals of a phi-delta-primary p stay phi-delta-primary when "
        "(phi(p):q) <= phi(p:q)",
        ("delta", "phi", "p", "q"),
        "(p:q) is phi-delta-primary",
    )
    def t22(L, corpus, config):
        res, down, everything = L._residual_table, L.down_sets, (1 << L.n) - 1
        at_residuals = [_gather(row) for row in res]  # q -> seq[(p:q)], per p
        by_phi = {}  # phi's key -> per p, the hypothesis mask, which reads no delta
        for delta, phi in product(*_domains(L, config, "delta", "phi")):
            primary, flags, _ = _entry(L, delta, phi)
            hypotheses = by_phi.setdefault(phi.key, {})
            for p in L.proper_elements:
                if not primary >> p & 1:
                    yield Row((delta, phi, p), everything, 0, 0)
                    continue
                at = at_residuals[p]
                hyp = hypotheses.get(p)
                if hyp is None:
                    # (p:q) is the top exactly when q <= p
                    hyp = hypotheses[p] = ~down[p] & _leq_mask(L, res[phi.table[p]], at(phi.table))
                yield Row((delta, phi, p), everything, hyp, _mask(at(flags)))

    def t23(L, delta, phi):
        hyp = _pdp(L, delta, phi) & _leq_mask(L, _gather(phi.table)(L._radical_table), delta.table)
        # the equality corollary is antisymmetry, so it adds no clause
        return hyp, _radical_below(L, delta.key)

    add(
        "T23",
        "a phi-delta-primary p with radical(phi(p)) <= delta(p) has "
        "radical(p) <= delta(p), with equality when also delta(p) <= radical(p)",
        ("delta", "phi", "p"),
        t23,
        "radical(p) <= delta(p)",
    )

    add(
        "T24",
        "when delta is a multiplicative automorphism, phi has the global "
        "property under it, and delta(delta(q)) <= delta(q), the image "
        "delta(q) of a phi-delta-primary q is phi-prime",
        ("delta", "phi", "q"),
        # An inflationary automorphism of a finite lattice is the identity
        # (README "Acceptance status"). Under it phi has the global property,
        # delta(delta(q)) = delta(q), and delta(q) = q is proper, so phi-prime
        # at delta(q) is the hypothesis's entry at q: T01's forward direction
        lambda L, delta, phi: (_pdp(L, delta, phi), ALL) if delta.key == IDENTITY else (0, 0),
        "delta(q) is phi-prime",
    )

    def t25(L, phi):
        rad = L._radical_table
        hyp = (
            _pdp(L, _delta(L, "d1"), phi)
            & _mask(map(eq, _gather(phi.table)(rad), _gather(rad)(phi.table)))
            & _mask(r != L.top for r in rad)
        )
        return hyp, _pull(_entry(L, _delta(L, "d0"), phi)[1], rad)

    add(
        "T25",
        "a phi-d1-primary q with radical(phi(q)) = phi(radical(q)) has "
        "phi-prime radical (when the radical is proper)",
        ("phi", "q"),
        t25,
        "radical(q) is phi-prime",
    )

    # Every stock map is defined from order and multiplication alone, so it
    # commutes with every isomorphism (README "Acceptance status").
    @add_rows(
        "T26",
        "along an isomorphism under which delta and phi have the global "
        "property, phi-delta-primary transfers in both directions",
        ("f", "delta", "phi", "p"),
        "status agrees across the isomorphism",
    )
    def t26(L, corpus, config):
        for M in corpus.lattices():
            if M.n <= 1 or not _isomorphisms(L, M):
                continue
            domain = _proper(M)
            # one config gives both lists, so M's maps pair with L's by position
            maps = list(product(*_domains(M, config, "delta", "phi")))
            sources = product(*_domains(L, config, "delta", "phi"))
            verdicts = [(_entry(M, *m)[1], _entry(L, *s)[1]) for m, s in zip(maps, sources)]
            for f in _isomorphisms(L, M):
                pull_back = _gather(f.inverse)
                for (delta, phi), (here, source) in zip(maps, verdicts):
                    there = pull_back(source)
                    # one comparison of the whole tuples, which must agree along
                    # an isomorphism; only a disagreement is decided per p
                    agree = ALL if here == there else _mask(map(eq, here, there))
                    yield Row((f, delta, phi), domain, ALL, agree)

    add(
        "T27",
        "every proper idempotent is phiomega-delta-primary, hence "
        "phin-delta-primary for every n >= 2",
        ("delta", "q"),
        lambda L, delta: (
            _idempotent_entry(L)[0],
            _pdp(L, delta, _phi(L, "phiomega")) & _every_phin(L, delta.key),
        ),
        "phiomega and every phin",
    )

    # per lattice: the element, the predicates it has and those it lacks
    examples = {
        "Z24": ("(4)", ("phi2-d1-primary",), ("phi2-prime", "prime")),
        "Z30": ("(6)", ("phi2-d1-primary",), ("d1-primary", "2-potent-d0-primary")),
        "Z8": ("(4)", ("phi2-d1-primary", "2-potent-d0-primary"), ("idempotent", "prime")),
    }

    @add_rows(
        "T28",
        "the three separating examples: Z24 (4) phi2-d1-primary, not "
        "phi2-prime, not prime; Z30 (6) phi2-d1-primary, not d1-primary, not "
        "2-potent d0-primary; Z8 (4) phi2-d1-primary, 2-potent d0-primary, "
        "not idempotent, not prime",
        ("q",),
        "example flags as published",
    )
    def t28(L, corpus, config):
        label, has, lacks = examples.get(L.name, (None, (), ()))
        if label in L.labels:
            q = L.index_of(label)
            flags = [_named(L, name)[1][q] for name in has + lacks]
            published = all(flags[: len(has)]) and not any(flags[len(has):])
            yield Row((), 1 << q, ALL, ALL if published else 0)

    return tuple(props)


# -- runners -------------------------------------------------------------------


def _render_binding(L: FiniteMultiplicativeLattice, key, value) -> str:
    if isinstance(value, (Expansion, PhiMap)):
        return value.tag
    if isinstance(value, Isomorphism):
        return value.describe()
    if key in ("n", "k"):
        return str(value)
    return L.label(value)


def _witness(prop: TheoremProperty, L, values: tuple, element: int) -> Witness:
    *keys, last = prop.binding
    shown = dict(zip(keys, values))
    bindings = {key: _render_binding(L, key, value) for key, value in shown.items()}
    # an isomorphism's rows range over its target
    bindings[last] = (shown["f"].target if "f" in shown else L).label(element)
    delta = shown.get("delta")
    phi = shown.get("phi")
    return Witness(
        prop.id,
        L.name,
        delta.tag if isinstance(delta, Expansion) else "-",
        phi.tag if isinstance(phi, PhiMap) else "-",
        bindings,
        prop.clause,
    )


def run_property(
    prop: TheoremProperty,
    corpus: Corpus | None = None,
    config: HarnessConfig | None = None,
) -> PropertyResult:
    corpus = corpus if corpus is not None else default_corpus()
    config = config if config is not None else HarnessConfig()
    scanned = hits = violations = 0
    witnesses: list[Witness] = []
    for L in corpus.lattices():
        if L.n <= 1:  # no proper elements; nothing to quantify over
            continue
        for values, domain, hypothesis, conclusion, weights in prop.rows(L, corpus, config):
            held = hypothesis & domain
            broken = held & ~conclusion
            if weights is None:
                scanned += domain.bit_count()
                if not held:  # no hit, so nothing more to count or show
                    continue
                hits += held.bit_count()
                violations += broken.bit_count()
            else:
                scanned += sum(weights[e][0] for e in _bits(domain))
                hits += sum(weights[e][1] for e in _bits(held))
                violations += sum(weights[e][1] for e in _bits(broken))
            for e in _bits(broken) if broken else ():
                if len(witnesses) >= config.witness_cap:
                    break
                witnesses.append(_witness(prop, L, values, e))
    return PropertyResult(
        prop.id, prop.description, scanned, hits, violations, tuple(witnesses)
    )


def run_all(
    corpus: Corpus | None = None, config: HarnessConfig | None = None
) -> HarnessReport:
    corpus = corpus if corpus is not None else default_corpus()
    config = config if config is not None else HarnessConfig()
    results = tuple(
        run_property(prop, corpus, config)
        for prop in sorted(registry(), key=lambda p: p.id)
    )
    return HarnessReport(results)


# -- counterexample hunting ----------------------------------------------------


class Predicate(NamedTuple):
    """A hunt predicate by its normalized name: ``witness(L, q)`` is its first
    violating pair at the proper element q, or None when q has it, read off
    the name's store entry; ``test`` reads that verdict."""

    name: str

    def witness(self, L: FiniteMultiplicativeLattice, q: int) -> tuple[int, int] | None:
        if self.name != "idempotent":  # the top is the unit, so idempotent
            _require_proper(L, q)
        return _named(L, self.name)[2][q]

    def test(self, L: FiniteMultiplicativeLattice, q: int) -> bool:
        return self.witness(L, q) is None


# Numerals carry no leading zero, so each predicate has one spelling; the
# groups are the kernel's arguments, and prime/primary are its d0/d1 forms.
_GRAMMAR = re.compile(
    r"^(?:phi(?P<phi>0|[1-9]\d*|omega)-|(?P<k>[1-9]\d*)-potent-(?=d))?"
    r"(?:d(?P<d>[01])-primary|(?P<alias>prime|primary))$|^idempotent$"
)
_ALIASES = {"prime": "0", "primary": "1"}  # the delta kind d<D> of each alias


def predicate_name(name: str) -> str:
    """The normalized spelling of a predicate name, checked against the grammar.

    Grammar: prime | primary | idempotent | d<D>-primary | phi<P>-prime |
    phi<P>-primary | phi<P>-d<D>-primary | <k>-potent-d<D>-primary, with
    D in {0, 1}, P a power exponent or "omega", and k >= 2, numerals without
    a leading zero.  Any other name raises ValueError.
    """
    name = name.strip().lower()
    if not _GRAMMAR.match(name):
        raise ValueError(f"unknown predicate {name!r}")
    if name.startswith("1-potent-"):
        raise ValueError(f"potency must be >= 2 in predicate {name!r}")
    return name


@_per_lattice
def _named(L: FiniteMultiplicativeLattice, name: str):
    """The store entry of a normalized predicate name, kept under the name so
    that a witness per element is one lookup; an alias reads its kernel's
    entry."""
    if name == "idempotent":
        return _idempotent_entry(L)
    m = _GRAMMAR.match(name)
    delta = _delta(L, f"d{m['d'] or _ALIASES[m['alias']]}")
    phi = _phi(L, f"phi{m['phi']}") if m["phi"] else None
    return _entry(L, delta, phi, int(m["k"]) if m["k"] else None)


def parse_predicate(name: str) -> Predicate:
    """The predicate of a kebab-case name (grammar in ``predicate_name``)."""
    return Predicate(predicate_name(name))


class HuntHit(NamedTuple):
    lattice: str
    element: str
    lacking: str
    pair: tuple[str, str] | None

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice,
            "element": self.element,
            "lacking": self.lacking,
            "pair": list(self.pair) if self.pair else None,
        }


# The hunt index lives on the corpus (its ``_memo``, which ``_per_lattice``
# fills as it does a lattice's): element q of a lattice is bit offset + q,
# offset the sum of n over the lattices before it, so ascending bits run in
# corpus order, then by element index.


@_per_lattice
def _holders(corpus: Corpus, name: str) -> int:
    """The corpus's proper elements that have the named predicate."""
    mask = offset = 0
    for L in corpus.lattices():
        mask |= _named(L, name)[0] << offset
        offset += L.n
    return mask


@_per_lattice
def _lacking(corpus: Corpus, name: str) -> tuple[int, tuple[HuntHit | None, ...]]:
    """The corpus's proper elements that lack the named predicate, and per
    element the finished hit a hunt lacking it reports (None where there is
    none). Built only for predicates a hunt lacks; the mask is the proper
    elements outside ``_holders``, so a name once lacked is also read as a
    `have` without touching a lattice."""
    proper, found = 0, []
    for L in corpus.lattices():
        proper |= _proper(L) << len(found)
        labels = L.labels
        for q, pair in enumerate(_named(L, name)[2]):
            if pair is None:
                found.append(None)
            else:
                a, b = pair
                found.append(HuntHit(L.name, labels[q], name, (labels[a], labels[b])))
    return proper & ~_holders(corpus, name), tuple(found)


def hunt(
    have: str | Iterable[str], lack: str, corpus: Corpus | None = None
) -> tuple[HuntHit, ...]:
    """All proper elements in the corpus with every `have` predicate but not
    `lack`, each carrying the lacked predicate's first violating pair.

    Hits come per lattice in corpus order, then by ascending element index.
    The corpus keeps one bitmask per predicate over all its lattices
    (``_holders``, and ``_lacking`` with its finished hits for the lacked
    one), so a repeated query normalizes its names, ANDs one int per `have`
    and hands out kept hits: it reads no lattice.
    """
    corpus = corpus if corpus is not None else default_corpus()
    names = [have] if isinstance(have, str) else list(have)
    have_names = [predicate_name(n) for n in names]
    mask, found = _lacking(corpus, predicate_name(lack))
    for name in have_names:
        mask &= _holders(corpus, name)
    return tuple(map(found.__getitem__, _bits(mask)))
