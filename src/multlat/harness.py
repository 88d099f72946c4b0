"""Machine-checkable property suite for the phi-delta-primary theory.

Every registry entry quantifies a statement exhaustively over a corpus of
finite lattices and a configured set of expansion (delta) and phi maps.
Outcomes are three-valued: FAIL when a violation exists, VACUOUS when the
hypothesis never fired (reported loudly; silent vacuity is this harness's
main failure mode), PASS otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator

from .classify import (
    compact_pair_violation,
    is_delta_primary,
    is_n_potent_delta_primary,
    is_phi_delta_primary,
    is_phi_primary,
    is_phi_prime,
    is_prime,
    prime_violation,
    primary_violation,
    delta_primary_violation,
    phi_prime_violation,
    phi_primary_violation,
    phi_delta_primary_violation,
    n_potent_violation,
    residual_characterization_A,
    residual_characterization_B,
)
from .constructions import Corpus, default_corpus
from .derived import (
    has_restricted_cancellation,
    is_idempotent,
    is_nilpotent,
    power_stabilization,
    radical,
    residual,
    structure_profile,
)
from .lattice import FiniteMultiplicativeLattice, _bits, _per_lattice
from .maps import (
    Expansion,
    Isomorphism,
    PhiMap,
    enumerate_isomorphisms,
    is_monotone,
    make_delta,
    make_phi,
    map_leq,
)


@dataclass(frozen=True)
class HarnessConfig:
    delta_kinds: tuple[str, ...] = ("d0", "d1")
    phi_kinds: tuple[str, ...] = ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega")
    potency: tuple[int, ...] = (2, 3, 4)
    witness_cap: int = 10
    expected_vacuous: tuple[str, ...] = ("T12",)


Instance = dict
Hypothesis = Callable[[FiniteMultiplicativeLattice, HarnessConfig, Instance], bool]
Conclusion = Hypothesis
Instances = Callable[
    [FiniteMultiplicativeLattice, Corpus, HarnessConfig], Iterator[Instance]
]


@dataclass(frozen=True)
class TheoremProperty:
    id: str
    description: str
    binding: tuple[str, ...]
    instances: Instances = field(compare=False)
    hypothesis: Hypothesis = field(compare=False)
    conclusion: Conclusion = field(compare=False)
    clause: str = "conclusion"
    # (scanned, hits) that one instance stands for; None counts it as (1, 1)
    weight: Callable[..., tuple[int, int]] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Witness:
    property_id: str
    lattice: str
    delta: str
    phi: str
    bindings: dict[str, str] = field(compare=False)
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


@dataclass(frozen=True)
class PropertyResult:
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


@dataclass(frozen=True)
class HarnessReport:
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


@_per_lattice
def _delta(L: FiniteMultiplicativeLattice, kind: str) -> Expansion:
    return make_delta(L, kind)


@_per_lattice
def _phi(L: FiniteMultiplicativeLattice, kind: str) -> PhiMap:
    return make_phi(L, kind)


def _deltas(L, config) -> tuple[Expansion, ...]:
    return tuple(_delta(L, k) for k in config.delta_kinds)


def _phis(L, config) -> tuple[PhiMap, ...]:
    return tuple(_phi(L, k) for k in config.phi_kinds)


@_per_lattice
def _isomorphisms(L1, L2) -> tuple[Isomorphism, ...]:
    return enumerate_isomorphisms(L1, L2)


@_per_lattice
def _chain_counts(L, delta_kind: str, phi_kind: str) -> dict[int, tuple[int, int]]:
    """Per proper e, how many chains of proper elements have e as largest member,
    and how many of those are phi-delta-primary throughout: c(e) = 1 + the sum
    of c(d) over d < e, h(e) the same over phi-delta-primary d, or 0 unless e is.
    Keyed by kind strings, so a lookup hashes no map."""
    delta, phi, down = _delta(L, delta_kind), _phi(L, phi_kind), L.down_sets
    counts: dict[int, tuple[int, int]] = {}
    for e in sorted(L.proper_elements, key=lambda e: down[e].bit_count()):
        below = [counts[d] for d in _bits(down[e] & ~(1 << e))]
        chains = 1 + sum(n for n, _ in below)
        primary = is_phi_delta_primary(L, delta, phi, e)
        counts[e] = (chains, 1 + sum(n for _, n in below) if primary else 0)
    return counts


def _every_phin_delta_primary(L, delta: Expansion, p: int) -> bool:
    # p^n for n beyond the stabilization index repeats p^s, so "for all
    # n >= 2" is decided by n in 2..max(2, s).
    return all(
        is_phi_delta_primary(L, delta, _phi(L, f"phi{n}"), p)
        for n in range(2, max(2, power_stabilization(L, p)) + 1)
    )


# -- instance generators -------------------------------------------------------


# What each binding name ranges over, given the lattice and the config.
_DOMAINS = {
    "delta": _deltas,
    "gamma": _deltas,
    "phi": _phis,
    "g1": _phis,
    "g2": _phis,
    "p": lambda L, config: L.proper_elements,
    "q": lambda L, config: L.proper_elements,
    "n": lambda L, config: config.potency,
    "k": lambda L, config: config.potency,
}


def _from_binding(binding: tuple[str, ...]) -> Instances:
    """The instances of a binding: the product of its domains, in binding order."""

    def instances(L, corpus, config) -> Iterator[Instance]:
        domains = [_DOMAINS[name](L, config) for name in binding]
        return (dict(zip(binding, values)) for values in product(*domains))

    return instances


# -- the registry --------------------------------------------------------------


def _implies(a: bool, b: bool) -> bool:
    return (not a) or b


def registry() -> tuple[TheoremProperty, ...]:
    """One machine-checkable property per theorem, corollary, and example."""
    props: list[TheoremProperty] = []

    def add(id, description, binding, hypothesis, conclusion, clause, instances=None,
            weight=None):
        instances = instances or _from_binding(binding)
        props.append(TheoremProperty(
            id, description, binding, instances, hypothesis, conclusion, clause, weight
        ))

    add(
        "T01",
        "phi-d0-primary if and only if phi-prime",
        ("phi", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d0"), i["phi"], i["p"])
        == is_phi_prime(L, i["phi"], i["p"]),
        "phi-d0-primary <=> phi-prime",
    )

    add(
        "T02",
        "phi-d1-primary if and only if phi-primary",
        ("phi", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), i["phi"], i["p"])
        == is_phi_primary(L, i["phi"], i["p"]),
        "phi-d1-primary <=> phi-primary",
    )

    add(
        "T03",
        "phi-delta-primary implies phi-gamma-primary when delta <= gamma",
        ("delta", "gamma", "phi", "p"),
        lambda L, c, i: map_leq(i["delta"], i["gamma"])
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["gamma"], i["phi"], i["p"]),
        "phi-gamma-primary",
    )

    add(
        "T04",
        "a prime element is phi-delta-primary for every expansion and phi",
        ("delta", "phi", "p"),
        lambda L, c, i: is_prime(L, i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        "phi-delta-primary",
    )

    add(
        "T05",
        "definition, first residual characterization, and the compact-pair "
        "form agree",
        ("delta", "phi", "q"),
        lambda L, c, i: True,
        lambda L, c, i: (
            is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
            == residual_characterization_A(L, i["delta"], i["phi"], i["q"])
            == (compact_pair_violation(L, i["delta"], i["phi"], i["q"]) is None)
        ),
        "definition <=> characterization-A <=> compact-pair form",
    )

    add(
        "T06",
        "definition and second residual characterization agree",
        ("delta", "phi", "q"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == residual_characterization_B(L, i["delta"], i["phi"], i["q"]),
        "definition <=> characterization-B",
    )

    def t07_hypothesis(L, c, i):
        prof = structure_profile(L)
        if not (prof.noether and prof.quasi_local):
            return False
        m = prof.maximal_elements[0]
        p, mm = i["p"], L.power(m, 2)
        return L.power(p, 2) == mm and L.leq_table[mm][p] and L.leq_table[p][m]

    add(
        "T07",
        "in a quasi-local Noether lattice, p^2 = m^2 <= p <= m forces p to be "
        "phi2-d1-primary",
        ("p",),
        t07_hypothesis,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), _phi(L, "phi2"), i["p"]),
        "phi2-d1-primary",
    )

    add(
        "T08",
        "g1-delta-primary implies g2-delta-primary when g1 <= g2 pointwise",
        ("delta", "g1", "g2", "p"),
        lambda L, c, i: map_leq(i["g1"], i["g2"])
        and is_phi_delta_primary(L, i["delta"], i["g1"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["g2"], i["p"]),
        "g2-delta-primary",
    )

    def t09_conclusion(L, c, i):
        delta, n, p = i["delta"], i["n"], i["p"]
        steps = [
            is_delta_primary(L, delta, p),
            is_phi_delta_primary(L, delta, _phi(L, "phi0"), p),
            is_phi_delta_primary(L, delta, _phi(L, "phiomega"), p),
            is_phi_delta_primary(L, delta, _phi(L, f"phi{n + 1}"), p),
            is_phi_delta_primary(L, delta, _phi(L, f"phi{n}"), p),
            is_phi_delta_primary(L, delta, _phi(L, "phi2"), p),
        ]
        return all(_implies(a, b) for a, b in zip(steps, steps[1:]))

    add(
        "T09",
        "implication chain: delta-primary => phi0 => phiomega => phi(n+1) => "
        "phi(n) => phi2 (delta-primary throughout)",
        ("delta", "n", "p"),
        lambda L, c, i: True,
        t09_conclusion,
        "each arrow of the chain",
    )

    add(
        "T10",
        "phiomega-delta-primary iff phin-delta-primary for every n >= 2",
        ("delta", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["p"])
        == _every_phin_delta_primary(L, i["delta"], i["p"]),
        "phiomega <=> all phin",
    )

    def t11_hypothesis(L, c, i):
        prof = structure_profile(L)
        return prof.local_noether and prof.domain and prof.krull

    add(
        "T11",
        "in a local Noether domain with all proper power-meets zero, "
        "phin-delta-primary for every n >= 2 iff delta-primary",
        ("delta", "p"),
        t11_hypothesis,
        lambda L, c, i: _every_phin_delta_primary(L, i["delta"], i["p"])
        == is_delta_primary(L, i["delta"], i["p"]),
        "all phin <=> delta-primary",
    )

    def t12_hypothesis(L, c, i):
        q = i["q"]
        return (
            structure_profile(L).noether
            and q != L.bottom
            and not is_nilpotent(L, q)
            and has_restricted_cancellation(L, q)
            and map_leq(i["phi"], _phi(L, "phi2"))
        )

    add(
        "T12",
        "in a Noether lattice, a nonzero non-nilpotent element with the "
        "restricted cancellation law is phi-delta-primary (phi <= phi2, and "
        "likewise phi <= phin for n >= 2) iff delta-primary",
        ("delta", "phi", "q"),
        t12_hypothesis,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
    )

    add(
        "T13",
        "a 2-potent delta-primary element (the d0 form included) is "
        "phi-delta-primary for phi <= phi2 iff delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_n_potent_delta_primary(L, i["delta"], i["q"], 2)
        and map_leq(i["phi"], _phi(L, "phi2")),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
    )

    def t14_instances(L, corpus, config):
        every = _from_binding(("delta", "phi", "q", "n", "k"))(L, corpus, config)
        return (i for i in every if i["k"] <= i["n"])

    add(
        "T14",
        "for k <= n, a k-potent delta-primary element is phi-delta-primary "
        "for phi <= phin iff delta-primary",
        ("delta", "phi", "q", "n", "k"),
        lambda L, c, i: map_leq(i["phi"], _phi(L, f"phi{i['n']}"))
        and is_n_potent_delta_primary(L, i["delta"], i["q"], i["k"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
        instances=t14_instances,
    )

    add(
        "T15",
        "a phi-delta-primary q with q^2 not below phi(q) is delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not L.leq_table[L.power(i["q"], 2)][i["phi"].table[i["q"]]],
        lambda L, c, i: is_delta_primary(L, i["delta"], i["q"]),
        "delta-primary",
    )

    add(
        "T16",
        "a phi-delta-primary q that is not delta-primary has q^2 <= phi(q)",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: L.leq_table[L.power(i["q"], 2)][i["phi"].table[i["q"]]],
        "q^2 <= phi(q)",
    )

    add(
        "T17",
        "a phi-delta-primary q that is not delta-primary has "
        "radical(q) = radical(phi(q))",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: radical(L, i["q"]) == radical(L, i["phi"].table[i["q"]]),
        "radical(q) = radical(phi(q))",
    )

    add(
        "T18",
        "a phi-delta-primary q with phi <= phi3 is phin-delta-primary for "
        "every n >= 2 and phiomega-delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: map_leq(i["phi"], _phi(L, "phi3"))
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["q"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["q"])
        and _every_phin_delta_primary(L, i["delta"], i["q"]),
        "phiomega and every phin",
    )

    add(
        "T19",
        "a phi0-delta-primary q that is not delta-primary has q^2 = 0",
        ("delta", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phi0"), i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: L.power(i["q"], 2) == L.bottom,
        "q^2 = 0",
    )

    add(
        "T20",
        "a phi-delta-primary q whose phi(q) is delta-primary is delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and is_delta_primary(L, i["delta"], i["phi"].table[i["q"]]),
        lambda L, c, i: is_delta_primary(L, i["delta"], i["q"]),
        "delta-primary",
    )

    add(
        "T21",
        "the join of a chain of phi-delta-primary elements is "
        "phi-delta-primary when phi is monotone",
        ("delta", "phi", "p"),
        lambda L, c, i: is_monotone(i["phi"])
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        "join is phi-delta-primary",
        # one instance per join p, standing for the chains whose largest member is p
        weight=lambda L, c, i: _chain_counts(L, i["delta"].tag, i["phi"].tag)[i["p"]],
    )

    def t22_instances(L, corpus, config):
        for i in _from_binding(("delta", "phi", "p"))(L, corpus, config):
            # decided once for every q: p's own status does not read q
            primary = is_phi_delta_primary(L, i["delta"], i["phi"], i["p"])
            for q in range(L.n):
                yield {**i, "q": q, "primary": primary}

    def t22_hypothesis(L, c, i):
        if not i["primary"]:
            return False
        phi, p, q = i["phi"], i["p"], i["q"]
        pq = residual(L, p, q)
        if pq == L.top:
            return False
        return L.leq_table[residual(L, phi.table[p], q)][phi.table[pq]]

    add(
        "T22",
        "residuals of a phi-delta-primary p stay phi-delta-primary when "
        "(phi(p):q) <= phi(p:q)",
        ("delta", "phi", "p", "q"),
        t22_hypothesis,
        lambda L, c, i: is_phi_delta_primary(
            L, i["delta"], i["phi"], residual(L, i["p"], i["q"])
        ),
        "(p:q) is phi-delta-primary",
        instances=t22_instances,
    )

    def t23_conclusion(L, c, i):
        dp = i["delta"].table[i["p"]]
        rp = radical(L, i["p"])
        if not L.leq_table[rp][dp]:
            return False
        # equality corollary: delta(p) <= radical(p) then forces equality
        return not L.leq_table[dp][rp] or rp == dp

    add(
        "T23",
        "a phi-delta-primary p with radical(phi(p)) <= delta(p) has "
        "radical(p) <= delta(p), with equality when also delta(p) <= radical(p)",
        ("delta", "phi", "p"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"])
        and L.leq_table[radical(L, i["phi"].table[i["p"]])][i["delta"].table[i["p"]]],
        t23_conclusion,
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
        # delta(delta(q)) = delta(q), and delta(q) = q is proper.
        lambda L, c, i: i["delta"].table == _delta(L, "d0").table
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["q"]),
        lambda L, c, i: is_phi_prime(L, i["phi"], i["delta"].table[i["q"]]),
        "delta(q) is phi-prime",
    )

    add(
        "T25",
        "a phi-d1-primary q with radical(phi(q)) = phi(radical(q)) has "
        "phi-prime radical (when the radical is proper)",
        ("phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), i["phi"], i["q"])
        and radical(L, i["phi"].table[i["q"]]) == i["phi"].table[radical(L, i["q"])]
        and radical(L, i["q"]) != L.top,
        lambda L, c, i: is_phi_prime(L, i["phi"], radical(L, i["q"])),
        "radical(q) is phi-prime",
    )

    def t26_instances(L, corpus, config):
        for M in corpus.lattices():
            if M.n <= 1:
                continue
            for f in _isomorphisms(L, M):
                for dk, pk in product(config.delta_kinds, config.phi_kinds):
                    delta, phi = _delta(M, dk), _phi(M, pk)
                    shared = {"f": f, "delta": delta, "phi": phi,
                              "delta_src": _delta(L, dk), "phi_src": _phi(L, pk)}
                    yield from ({**shared, "p": p} for p in M.proper_elements)

    add(
        "T26",
        "along an isomorphism under which delta and phi have the global "
        "property, phi-delta-primary transfers in both directions",
        ("f", "delta", "phi", "p"),
        # Every stock map is defined from order and multiplication alone, so it
        # commutes with every isomorphism (README "Acceptance status").
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(
            i["f"].target, i["delta"], i["phi"], i["p"]
        )
        == is_phi_delta_primary(
            L, i["delta_src"], i["phi_src"], i["f"].pull_back(i["p"])
        ),
        "status agrees across the isomorphism",
        instances=t26_instances,
    )

    add(
        "T27",
        "every proper idempotent is phiomega-delta-primary, hence "
        "phin-delta-primary for every n >= 2",
        ("delta", "q"),
        lambda L, c, i: is_idempotent(L, i["q"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["q"])
        and _every_phin_delta_primary(L, i["delta"], i["q"]),
        "phiomega and every phin",
    )

    _T28_CASES = {
        "Z24": "(4)",
        "Z30": "(6)",
        "Z8": "(4)",
    }

    def t28_instances(L, corpus, config):
        label = _T28_CASES.get(L.name)
        if label is not None and label in L.labels:
            yield {"q": L.index_of(label)}

    def t28_conclusion(L, c, i):
        q = i["q"]
        d0, d1, phi2 = _delta(L, "d0"), _delta(L, "d1"), _phi(L, "phi2")
        if not is_phi_delta_primary(L, d1, phi2, q):
            return False
        if L.name == "Z24":
            return not is_phi_prime(L, phi2, q) and not is_prime(L, q)
        if L.name == "Z30":
            return not is_delta_primary(L, d1, q) and not is_n_potent_delta_primary(
                L, d0, q, 2
            )
        return (
            not is_idempotent(L, q)
            and is_n_potent_delta_primary(L, d0, q, 2)
            and not is_prime(L, q)
        )

    add(
        "T28",
        "the three separating examples: Z24 (4) phi2-d1-primary, not "
        "phi2-prime, not prime; Z30 (6) phi2-d1-primary, not d1-primary, not "
        "2-potent d0-primary; Z8 (4) phi2-d1-primary, 2-potent d0-primary, "
        "not idempotent, not prime",
        ("q",),
        lambda L, c, i: True,
        t28_conclusion,
        "example flags as published",
        instances=t28_instances,
    )

    return tuple(props)


# -- runners -------------------------------------------------------------------


def _render_binding(L: FiniteMultiplicativeLattice, inst: Instance, key, value) -> str:
    if isinstance(value, (Expansion, PhiMap)):
        return value.tag
    if isinstance(value, Isomorphism):
        return value.describe()
    if key in ("n", "k"):
        return str(value)
    if "f" in inst and key == "p":  # element of the isomorphism's target
        return inst["f"].target.label(value)
    return L.label(value)


def _witness(prop: TheoremProperty, L, inst: Instance) -> Witness:
    delta = inst.get("delta")
    phi = inst.get("phi")
    bindings = {
        key: _render_binding(L, inst, key, value)
        for key, value in inst.items()
        if key in prop.binding
    }
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
        for inst in prop.instances(L, corpus, config):
            n, n_hits = prop.weight(L, config, inst) if prop.weight else (1, 1)
            scanned += n
            if not prop.hypothesis(L, config, inst):
                continue
            hits += n_hits
            if prop.conclusion(L, config, inst):
                continue
            violations += n_hits
            if len(witnesses) < config.witness_cap:
                witnesses.append(_witness(prop, L, inst))
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


@dataclass(frozen=True)
class Predicate:
    """A hunt predicate: ``witness(L, q)`` is its first violating pair at the
    proper element q, or None when q has it; ``test`` reads that verdict.
    It hashes and compares on its normalized name only."""

    name: str
    witness: Callable[[FiniteMultiplicativeLattice, int], tuple[int, int] | None] = field(
        compare=False
    )

    def test(self, L: FiniteMultiplicativeLattice, q: int) -> bool:
        return self.witness(L, q) is None


# Numerals carry no leading zero, so each predicate has one spelling.
_POTENT_RE = re.compile(r"^([1-9]\d*)-potent-d([01])-primary$")
_PHI_DELTA_RE = re.compile(r"^phi(0|[1-9]\d*|omega)-d([01])-primary$")
_PHI_PRIME_RE = re.compile(r"^phi(0|[1-9]\d*|omega)-(prime|primary)$")
_DELTA_RE = re.compile(r"^d([01])-primary$")


def parse_predicate(name: str) -> Predicate:
    """Resolve a kebab-case predicate name to its violation finder.

    Grammar: prime | primary | idempotent | d<D>-primary | phi<P>-prime |
    phi<P>-primary | phi<P>-d<D>-primary | <k>-potent-d<D>-primary, with
    D in {0, 1}, P a power exponent or "omega", and k >= 2, numerals without
    a leading zero.  Each name maps to one finder over (lattice, element);
    the idempotent finder's pair is (q, q^2).
    """
    name = name.strip().lower()
    if name == "prime":
        return Predicate(name, prime_violation)
    if name == "primary":
        return Predicate(name, primary_violation)
    if name == "idempotent":
        return Predicate(
            name, lambda L, q: None if is_idempotent(L, q) else (q, L.power(q, 2))
        )
    m = _DELTA_RE.match(name)
    if m:
        kind = f"d{m.group(1)}"
        return Predicate(name, lambda L, q: delta_primary_violation(L, _delta(L, kind), q))
    m = _PHI_PRIME_RE.match(name)
    if m:
        pk, which = f"phi{m.group(1)}", m.group(2)
        finder = phi_prime_violation if which == "prime" else phi_primary_violation
        return Predicate(name, lambda L, q: finder(L, _phi(L, pk), q))
    m = _PHI_DELTA_RE.match(name)
    if m:
        pk, dk = f"phi{m.group(1)}", f"d{m.group(2)}"
        return Predicate(
            name, lambda L, q: phi_delta_primary_violation(L, _delta(L, dk), _phi(L, pk), q)
        )
    m = _POTENT_RE.match(name)
    if m:
        k, dk = int(m.group(1)), f"d{m.group(2)}"
        if k < 2:
            raise ValueError(f"potency must be >= 2 in predicate {name!r}")
        return Predicate(name, lambda L, q: n_potent_violation(L, _delta(L, dk), q, k))
    raise ValueError(f"unknown predicate {name!r}")


@dataclass(frozen=True)
class HuntHit:
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


@_per_lattice
def _holders(L: FiniteMultiplicativeLattice, pred: Predicate) -> int:
    """The proper elements that have pred, as a bitmask: bit q is set when
    ``pred.witness(L, q)`` is None."""
    return sum(1 << q for q in L.proper_elements if pred.witness(L, q) is None)


def hunt(
    have: str | Iterable[str], lack: str, corpus: Corpus | None = None
) -> tuple[HuntHit, ...]:
    """All proper elements in the corpus with every `have` predicate but not
    `lack`, each carrying the lacked predicate's first violating pair.

    Hits come per lattice in corpus order, then by ascending element index.
    Each predicate's verdicts are one bitmask per lattice (``_holders``), so
    only the hits read a witness.
    """
    corpus = corpus if corpus is not None else default_corpus()
    names = [have] if isinstance(have, str) else list(have)
    preds = [parse_predicate(n) for n in names]
    lack_pred = parse_predicate(lack)
    hits: list[HuntHit] = []
    for L in corpus.lattices():
        proper = ((1 << L.n) - 1) ^ (1 << L.top)
        mask = proper & ~_holders(L, lack_pred)
        for p in preds:
            mask &= _holders(L, p)
        for q in _bits(mask):
            pair = lack_pred.witness(L, q)
            hits.append(
                HuntHit(L.name, L.label(q), lack_pred.name, tuple(map(L.label, pair)))
            )
    return tuple(hits)
