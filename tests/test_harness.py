"""The exhaustive property-verification harness and counterexample hunting.

The full-run outcome table is frozen: every registered property passes on the
default corpus except T12, whose hypothesis is empty at finite scale.  A
proper nonzero non-nilpotent element q never has the restricted cancellation
law: with s the least exponent such that q^s = q^(s+1), the pair
b = q^(s-1) (b = top when s = 1) and c = q^s gives q*b = q*c = q^s != 0 with
b != c.
"""

import itertools
import random
from collections import Counter

import pytest

import oracle
from conftest import time_limit
from multlat import (
    HarnessConfig,
    Isomorphism,
    TheoremProperty,
    boolean_frame,
    chain_frame,
    default_corpus,
    enumerate_isomorphisms,
    hunt,
    make_delta,
    make_phi,
    parse_predicate,
    registry,
    run_all,
    run_property,
    zn_ideal_lattice,
)
from multlat import harness
from multlat.constructions import Corpus, CorpusEntry
from test_derived import SHAPES

EXPECTED_COUNTS = {
    # id: (instances_scanned, hypothesis_hits)
    "T01": (288, 288),
    "T02": (288, 288),
    "T03": (1152, 800),
    "T04": (576, 252),
    "T05": (576, 576),
    "T06": (576, 576),
    "T07": (48, 6),
    "T08": (3456, 2131),
    "T09": (288, 288),
    "T10": (96, 96),
    "T11": (96, 2),
    "T12": (576, 0),
    "T13": (576, 317),
    "T14": (3456, 1769),
    "T15": (576, 63),
    "T16": (576, 151),
    "T17": (576, 151),
    "T18": (576, 392),
    "T19": (96, 14),
    "T20": (576, 267),
    "T21": (2136, 1284),
    "T22": (3552, 1244),
    "T23": (576, 411),
    "T24": (576, 319),
    "T25": (288, 133),
    "T26": (1200, 1200),
    "T27": (96, 58),
    "T28": (3, 3),
}


@pytest.fixture(scope="module")
def full_report(corpus):
    return run_all(corpus)


def test_registry_is_well_formed():
    props = registry()
    assert len(props) >= 28
    ids = [p.id for p in props]
    assert len(set(ids)) == len(ids)
    assert sorted(ids) == [f"T{i:02d}" for i in range(1, len(props) + 1)]
    for p in props:
        assert p.description and p.binding and p.clause
        assert callable(p.instances) and callable(p.hypothesis) and callable(p.conclusion)


def test_full_run_outcomes_frozen(full_report):
    assert {r.id for r in full_report.results} == set(EXPECTED_COUNTS)
    for r in full_report.results:
        scanned, hits = EXPECTED_COUNTS[r.id]
        assert r.instances_scanned == scanned, r.id
        assert r.hypothesis_hits == hits, r.id
        assert r.violations == 0, r.id
        assert r.witnesses == ()
        assert r.status == ("VACUOUS" if hits == 0 else "PASS")


def test_report_accessors(full_report):
    assert full_report.result("T01").status == "PASS"
    with pytest.raises(KeyError):
        full_report.result("T99")
    assert full_report.unexpected_vacuous(()) == ("T12",)
    assert full_report.unexpected_vacuous(("T12",)) == ()
    assert full_report.ok(("T12",))
    assert not full_report.ok(())
    assert full_report.ok(HarnessConfig().expected_vacuous)


def test_report_serialization(full_report):
    data = full_report.to_dict()
    by_id = {r["id"]: r for r in data["results"]}
    assert by_id["T12"]["status"] == "VACUOUS"
    assert by_id["T26"]["hypothesis_hits"] == 1200
    table = full_report.text_table()
    assert "T12" in table and "VACUOUS" in table and "PASS" in table


def test_run_property_on_restricted_corpus():
    solo = Corpus((CorpusEntry(zn_ideal_lattice(8), "solo"),))
    reg = {p.id: p for p in registry()}
    r = run_property(reg["T01"], solo)
    assert (r.instances_scanned, r.hypothesis_hits, r.violations) == (18, 18, 0)


def test_empty_corpus_makes_everything_vacuous():
    report = run_all(Corpus(()))
    assert {r.status for r in report.results} == {"VACUOUS"}
    assert report.unexpected_vacuous(()) == tuple(sorted(p.id for p in registry()))


def test_single_element_lattices_are_skipped():
    from multlat import chain_frame

    report = run_all(Corpus((CorpusEntry(chain_frame(0), "point"),)))
    assert {r.status for r in report.results} == {"VACUOUS"}


def _always(L, config, inst):
    return True


def _never_conclusion(L, config, inst):
    from multlat import is_prime

    return is_prime(L, inst["p"])


def _proper_instances(L, corpus, config):
    for p in L.proper_elements:
        yield {"p": p}


FAILING = TheoremProperty(
    id="TX",
    description="every proper element is prime (deliberately false)",
    binding="p proper",
    instances=_proper_instances,
    hypothesis=_always,
    conclusion=_never_conclusion,
    clause="is_prime(p)",
)


def test_synthetic_failure_is_witnessed():
    solo = Corpus((CorpusEntry(zn_ideal_lattice(24), "solo"),))
    r = run_property(FAILING, solo)
    assert r.status == "FAIL"
    assert r.violations == 5  # (0), (4), (6), (8), (12) are not prime in Z24
    assert len(r.witnesses) == 5
    w = r.witnesses[0]
    assert w.property_id == "TX" and w.lattice == "Z24"
    assert w.clause == "is_prime(p)"
    data = w.to_dict()
    assert data["bindings"] == {"p": "(0)"}

    again = run_property(FAILING, solo)
    assert [x.to_dict() for x in again.witnesses] == [x.to_dict() for x in r.witnesses]


def test_witness_cap_limits_collection():
    solo = Corpus((CorpusEntry(zn_ideal_lattice(24), "solo"),))
    r = run_property(FAILING, solo, HarnessConfig(witness_cap=2))
    assert r.violations == 5
    assert len(r.witnesses) == 2


def test_failing_property_breaks_report_ok():
    solo = Corpus((CorpusEntry(zn_ideal_lattice(24), "solo"),))
    ok_result = run_property(FAILING, solo)
    from multlat.harness import HarnessReport

    report = HarnessReport((ok_result,))
    assert not report.ok(("T12",))


def test_parse_predicate_accepts_the_grammar(z30):
    six = z30.index_of("(6)")
    cases = {
        "prime": False,
        "primary": False,
        "idempotent": True,
        "d0-primary": False,
        "d1-primary": False,
        "phi2-d1-primary": True,
        "phiomega-d0-primary": True,
        "phi0-prime": False,
        "phi2-primary": True,
        "2-potent-d0-primary": False,
        "3-potent-d1-primary": False,  # (6)^3 = (6) and delta1 fixes (6)
    }
    for name, expected in cases.items():
        pred = parse_predicate(name)
        assert pred.name == name
        assert pred.test(z30, six) == expected, name


def test_parse_predicate_rejects_nonsense():
    for bad in ("1-potent-d0-primary", "phi2-d2-primary", "bogus", "phi-primary", ""):
        with pytest.raises(ValueError):
            parse_predicate(bad)


def test_hunt_golden_separations():
    hits = hunt("phi2-d1-primary", "d1-primary")
    assert len(hits) == 8
    key = {(h.lattice, h.element): h for h in hits}
    assert ("Z30", "(6)") in key
    assert key[("Z30", "(6)")].pair == ("(2)", "(3)")
    assert key[("Z30", "(6)")].lacking == "d1-primary"

    hits2 = hunt("phi2-d1-primary", "2-potent-d0-primary")
    assert ("Z30", "(6)") in {(h.lattice, h.element) for h in hits2}

    hits3 = hunt(["2-potent-d0-primary", "phi2-d1-primary"], "prime")
    key3 = {(h.lattice, h.element): h for h in hits3}
    assert ("Z8", "(4)") in key3
    assert key3[("Z8", "(4)")].pair == ("(2)", "(2)")


def test_hunt_finds_nothing_above_the_hierarchy():
    assert hunt("prime", "phi2-d1-primary") == ()


def test_hunt_respects_custom_corpus():
    solo = Corpus((CorpusEntry(zn_ideal_lattice(30), "solo"),))
    hits = hunt("phi2-d1-primary", "d1-primary", solo)
    assert {h.element for h in hits} == {"(0)", "(6)", "(10)", "(15)"}
    assert all(h.to_dict()["lattice"] == "Z30" for h in hits)


def test_t3_suite_runs_fast_enough(corpus):
    import time

    t0 = time.perf_counter()
    run_all(corpus)
    assert time.perf_counter() - t0 < 60.0


def test_binding_instances_nest_in_binding_order(z8):
    from multlat.harness import _from_binding

    solo = Corpus((CorpusEntry(z8, "solo"),))
    instances = list(_from_binding(("delta", "n", "p"))(z8, solo, HarnessConfig()))
    assert all(list(i) == ["delta", "n", "p"] for i in instances)
    assert [(i["delta"].tag, i["n"], i["p"]) for i in instances] == [
        (d, n, p) for d in ("d0", "d1") for n in (2, 3, 4) for p in z8.proper_elements
    ]


# -- T21 counts its chains -----------------------------------------------------

T21 = {p.id: p for p in registry()}["T21"]


def _listed_t21_counts(L, config=HarnessConfig()):
    """T21's (instances_scanned, hypothesis_hits) on L by listing every chain:
    one instance per (delta, phi, chain), a hit when phi is monotone and every
    member is phi-delta-primary."""
    chains = oracle.proper_chains(L)
    hits = 0
    for dk in config.delta_kinds:
        for pk in config.phi_kinds:
            delta, phi = make_delta(L, dk), make_phi(L, pk)
            if oracle.order_break(L, phi.table) is not None:
                continue
            primary = {
                p for p in L.proper_elements
                if oracle.phi_delta_primary_violation(L, delta, phi, p) is None
            }
            hits += sum(primary.issuperset(chain) for chain in chains)
    return len(config.delta_kinds) * len(config.phi_kinds) * len(chains), hits


def _t21_counts(corpus):
    r = run_property(T21, corpus)
    return r.instances_scanned, r.hypothesis_hits


@pytest.mark.parametrize("added", [(), (360,), (5040,)], ids=["default", "+Z360", "+Z5040"])
def test_t21_counts_equal_the_listed_chains(corpus, added):
    for n in added:
        corpus = corpus.extended(zn_ideal_lattice(n), "added")
    listed = [_listed_t21_counts(L) for L in corpus.lattices()]
    assert _t21_counts(corpus) == tuple(map(sum, zip(*listed)))


def test_t21_counts_equal_the_listed_chains_on_frames():
    for L in [*map(chain_frame, range(6)), *map(boolean_frame, range(5))]:
        assert _t21_counts(Corpus((CorpusEntry(L, "solo"),))) == _listed_t21_counts(L), L


def test_t21_counts_millions_of_chains_without_listing_them(corpus):
    # about 6.7 million chains of proper elements in Z720720 alone
    with time_limit(30):
        counts = _t21_counts(corpus.extended(zn_ideal_lattice(720720), "added"))
    assert counts == (80_986_956, 13_660_292)


WEIGHTED = TheoremProperty(
    id="TW",
    description="a conclusion that never holds, each instance weighted (3, 2)",
    binding=("p",),
    instances=_proper_instances,
    hypothesis=_always,
    conclusion=lambda L, config, inst: False,
    clause="false",
    weight=lambda L, config, inst: (3, 2),
)


def test_weighted_instances_count_their_weight():
    z24 = zn_ideal_lattice(24)
    solo = Corpus((CorpusEntry(z24, "solo"),))
    r = run_property(WEIGHTED, solo, HarnessConfig(witness_cap=5))
    assert (r.instances_scanned, r.hypothesis_hits, r.violations) == (21, 14, 14)
    assert r.status == "FAIL"
    # one witness per violating instance, not per unit of weight, up to the cap
    first_five = [z24.label(p) for p in z24.proper_elements[:5]]
    assert [w.bindings["p"] for w in r.witnesses] == first_five


# -- element-free conditions are decided once ----------------------------------

REGISTRY = {p.id: p for p in registry()}


def test_t24_hypothesis_equals_the_literal_one(corpus):
    for n in (360, 5040, 30030):
        corpus = corpus.extended(zn_ideal_lattice(n), "added")
    t24, config = REGISTRY["T24"], HarnessConfig()
    hit_deltas = set()
    for L in corpus.lattices():
        if L.n <= 1:
            continue
        for inst in t24.instances(L, corpus, config):
            expected = oracle.t24_hypothesis(L, config, inst)
            assert t24.hypothesis(L, config, inst) == expected, (L.name, inst)
            if expected:
                hit_deltas.add(inst["delta"].tag)
    # d1 is the identity on every radical lattice (Z30, Z30030, the frames)
    assert hit_deltas == {"d0", "d1"}


def test_t26_hypothesis_equals_the_literal_one(corpus):
    # every stock map commutes with every isomorphism, so T26's hypothesis is True
    for n in (360, 5040, 30030):
        corpus = corpus.extended(zn_ideal_lattice(n), "added")
    t26, config = REGISTRY["T26"], HarnessConfig()
    lattices = [L for L in corpus.lattices() if L.n > 1]
    checked = 0
    for L in lattices:
        for inst in t26.instances(L, corpus, config):
            # an isomorphism keeps every verdict: one instance per (f, delta, phi)
            assert inst["agree"] == len(inst["f"].target.proper_elements)
            assert oracle.t26_hypothesis(L, config, inst), (L.name, inst["f"].describe())
            assert t26.hypothesis(L, config, inst)
            checked += 1
    isomorphisms = sum(len(enumerate_isomorphisms(L, M)) for L in lattices for M in lattices)
    assert checked == len(config.delta_kinds) * len(config.phi_kinds) * isomorphisms


def _t26_by_oracle(f, config):
    """T26 on the lone pair (f.source, f.target), one instance per p, with the
    verdicts from the naive scan: (scanned, hits, violations, witnesses)."""
    L, M = f.source, f.target
    scanned, violations = 0, []
    for dk, pk in itertools.product(config.delta_kinds, config.phi_kinds):
        for p in M.proper_elements:
            scanned += 1
            here = oracle.phi_delta_primary_violation(
                M, make_delta(M, dk), make_phi(M, pk), p) is None
            there = oracle.phi_delta_primary_violation(
                L, make_delta(L, dk), make_phi(L, pk), f.pull_back(p)) is None
            if here != there:
                violations.append((dk, pk, M.label(p)))
    return scanned, scanned, len(violations), violations[: config.witness_cap]


def test_t26_checks_each_p_when_the_verdicts_disagree(monkeypatch):
    # A bijection that swaps two elements is no isomorphism, so some (delta,
    # phi) see different verdicts on the two sides and T26 falls back to one
    # instance per p; the others still stand as one instance each.
    L = zn_ideal_lattice(24)
    corpus = Corpus((CorpusEntry(L, "solo"),))
    t26, config = REGISTRY["T26"], HarnessConfig()
    forms = Counter()
    for a, b in itertools.combinations(L.proper_elements, 2):
        swap = list(L.elements())
        swap[a], swap[b] = b, a
        f = Isomorphism(L, L, tuple(swap), tuple(swap))
        monkeypatch.setattr(harness, "_isomorphisms", lambda L1, L2: (f,))
        forms.update("agree" if "agree" in i else "p" for i in t26.instances(L, corpus, config))
        r = run_property(t26, corpus, config)
        got = [(w.delta, w.phi, w.bindings["p"]) for w in r.witnesses]
        assert all(w.bindings["f"] == f.describe() for w in r.witnesses)
        assert (r.instances_scanned, r.hypothesis_hits, r.violations, got) == (
            _t26_by_oracle(f, config)
        ), (L.label(a), L.label(b))
    assert forms["agree"] and forms["p"]


def test_element_free_conditions_keep_their_counts_at_scale():
    # at 720720 these three took about 6 s when each instance rechecked them
    with time_limit(4):
        corpus = default_corpus().extended(zn_ideal_lattice(720720), "added")
        results = [run_property(REGISTRY[pid], corpus) for pid in ("T22", "T24", "T26")]
    assert [(r.instances_scanned, r.hypothesis_hits) for r in results] == [
        (691_872, 159_562),
        (3_444, 825),
        (70_032, 70_032),
    ]
    assert all(r.violations == 0 for r in results)


# -- hunt reads one verdict bitmask per (lattice, predicate) -------------------

EXPONENTS = ("0", "1", "2", "3", "4", "omega")
PHI_FORMS = ("prime", "primary", "d0-primary", "d1-primary")
PREDICATES = [
    "prime", "primary", "idempotent", "d0-primary", "d1-primary",
    *(f"phi{e}-{form}" for e in EXPONENTS for form in PHI_FORMS),
    *(f"{k}-potent-d{d}-primary" for k in range(2, 5) for d in range(2)),
]


def _two_predicate_queries(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        have = rng.sample(PREDICATES, 2)
        yield have, rng.choice([p for p in PREDICATES if p not in have])


HUNT_CORPORA = {
    "default+Z360+Z5040": lambda: [
        *default_corpus().lattices(), zn_ideal_lattice(360), zn_ideal_lattice(5040)
    ],
    "chains": lambda: [chain_frame(k) for k in range(6)],
    "boolean": lambda: [boolean_frame(k) for k in range(5)],
    "non-distributive": lambda: SHAPES,
}


@pytest.mark.parametrize("name", HUNT_CORPORA)
def test_hunt_equals_the_predicate_by_predicate_scan(name):
    corpus = Corpus(tuple(CorpusEntry(L, "added") for L in HUNT_CORPORA[name]()))
    assert len(PREDICATES) == 35
    for lack in PREDICATES:
        for have in PREDICATES:
            assert hunt(have, lack, corpus) == oracle.hunt(have, lack, corpus), (have, lack)
    for have, lack in _two_predicate_queries(1, 300):
        assert hunt(have, lack, corpus) == oracle.hunt(have, lack, corpus), (have, lack)


def test_warm_hunts_read_masks(monkeypatch):
    corpus = default_corpus().extended(zn_ideal_lattice(5040), "added")
    calls = Counter()
    parse = harness.parse_predicate

    def counting_parse(name):
        pred = parse(name)

        def witness(L, q):
            calls[pred.name] += 1
            return pred.witness(L, q)

        return harness.Predicate(pred.name, witness)

    monkeypatch.setattr(harness, "parse_predicate", counting_parse)
    for name in PREDICATES:
        hunt([], name, corpus)
    queries = [
        (["phi2-d1-primary"], "d1-primary"),
        (["2-potent-d0-primary", "phi2-d1-primary"], "prime"),
        *_two_predicate_queries(2, 50),
    ]
    found = 0
    for have, lack in queries:
        calls.clear()
        found += len(hunt(have, lack, corpus))
        # the cold hunts kept every hit, so a warm query calls no witness
        assert not calls, (have, lack, calls)
    assert found


def test_predicate_numerals_have_no_leading_zero():
    for bad in ("phi00-prime", "phi01-primary", "phi02-d1-primary", "phi007-primary",
                "02-potent-d0-primary", "00-potent-d1-primary"):
        with pytest.raises(ValueError, match="unknown predicate"):
            parse_predicate(bad)
    for good in ("phi0-prime", "phi10-primary", "phi100-d0-primary", "10-potent-d1-primary"):
        assert parse_predicate(good).name == good
