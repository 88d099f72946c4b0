"""The exhaustive property-verification harness and counterexample hunting.

The full-run outcome table is frozen: every registered property passes on the
default corpus except T12, whose hypothesis is empty at finite scale.  A
proper nonzero non-nilpotent element q never has the restricted cancellation
law: with s the least exponent such that q^s = q^(s+1), the pair
b = q^(s-1) (b = top when s = 1) and c = q^s gives q*b = q*c = q^s != 0 with
b != c.
"""

import functools
import hashlib
import itertools
import operator
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracle
from conftest import time_limit
from multlat import (
    Expansion,
    FiniteMultiplicativeLattice,
    HarnessConfig,
    HarnessReport,
    Isomorphism,
    PhiMap,
    Row,
    TheoremProperty,
    boolean_frame,
    chain_frame,
    classification_report,
    default_corpus,
    enumerate_isomorphisms,
    hunt,
    is_prime,
    make_delta,
    make_phi,
    parse_predicate,
    phi_delta_primary_violation,
    power_stabilization,
    registry,
    run_all,
    run_property,
    validate,
    zn_ideal_lattice,
)
from multlat import classify, harness
from multlat.constructions import Corpus, CorpusEntry
from multlat.lattice import _bits, _per_lattice
from multlat.maps import key_table
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
        assert p.binding[-1] in ("p", "q") and callable(p.rows)


def test_every_quantified_map_comes_from_domains(corpus, monkeypatch):
    # With the map domains narrowed to d1 and phi2, no row of any property
    # may hold another map: a row that builds its maps itself keeps all of
    # the configured ones.
    d1 = lambda L, config: (harness._delta(L, "d1"),)
    phi2 = lambda L, config: (harness._phi(L, "phi2"),)
    for name, narrowed in (("delta", d1), ("gamma", d1), ("phi", phi2), ("g1", phi2),
                           ("g2", phi2)):
        monkeypatch.setitem(harness._DOMAINS, name, narrowed)
    config, stray = HarnessConfig(), Counter()
    for prop in registry():
        for L in corpus.lattices():
            if L.n <= 1:
                continue
            for row in prop.rows(L, corpus, config):
                for value in row.values:
                    if isinstance(value, Expansion):
                        stray[prop.id] += value is not harness._delta(value.lattice, "d1")
                    elif isinstance(value, PhiMap):
                        stray[prop.id] += value is not harness._phi(value.lattice, "phi2")
    assert +stray == Counter()


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
    assert full_report.ok(harness.EXPECTED_VACUOUS)


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


def test_the_benchmarks_constructors_keep_their_forms():
    # benchmarks/layers.py builds a default config, a corpus of one entry and
    # a report from a tuple of results, each by position.
    config = HarnessConfig()
    assert config == HarnessConfig(
        ("d0", "d1"), ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega"), (2, 3, 4), 10
    )
    solo = Corpus((CorpusEntry(zn_ideal_lattice(8), "solo"),))
    results = [run_property(p, solo, config) for p in sorted(registry(), key=lambda p: p.id)]
    report = HarnessReport(tuple(results))
    assert report.to_dict() == run_all(solo, config).to_dict()


def test_empty_corpus_makes_everything_vacuous():
    report = run_all(Corpus(()))
    assert {r.status for r in report.results} == {"VACUOUS"}
    assert report.unexpected_vacuous(()) == tuple(sorted(p.id for p in registry()))


def test_single_element_lattices_are_skipped():
    from multlat import chain_frame

    report = run_all(Corpus((CorpusEntry(chain_frame(0), "point"),)))
    assert {r.status for r in report.results} == {"VACUOUS"}


def _proper(L):
    return sum(1 << p for p in L.proper_elements)


def _prime_rows(L, corpus, config):
    primes = sum(1 << p for p in L.proper_elements if is_prime(L, p))
    yield Row((), _proper(L), harness.ALL, primes)


FAILING = TheoremProperty(
    id="TX",
    description="every proper element is prime (deliberately false)",
    binding=("p",),
    rows=_prime_rows,
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
    # T09 binds (delta, n, p): one row per (delta, n), each over every proper p
    solo = Corpus((CorpusEntry(z8, "solo"),))
    rows = list(REGISTRY["T09"].rows(z8, solo, HarnessConfig()))
    assert [(row.values[0].tag, row.values[1]) for row in rows] == [
        (d, n) for d in ("d0", "d1") for n in (2, 3, 4)
    ]
    assert {row.domain for row in rows} == {_proper(z8)}
    # the per-instance form nests the element innermost, in the same order
    instances = list(oracle.from_binding(("delta", "n", "p"))(z8, solo, HarnessConfig()))
    assert all(list(i) == ["delta", "n", "p"] for i in instances)
    assert [(i["delta"].tag, i["n"], i["p"]) for i in instances] == [
        (row.values[0].tag, row.values[1], p) for row in rows for p in _bits(row.domain)
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
    rows=lambda L, corpus, config: [Row((), _proper(L), harness.ALL, 0, [(3, 2)] * L.n)],
    clause="false",
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


def test_agree_equals_the_pairwise_reduce():
    # the masks rows compare hold negative ints too, as ~down[p] does
    rng = random.Random(25)
    for count in (1, 2, 3):
        for _ in range(500):
            masks = [rng.randrange(-1 << 40, 1 << 40) for _ in range(count)]
            pairwise = (~(a ^ b) for a, b in zip(masks, masks[1:]))
            assert harness._agree(*masks) == functools.reduce(operator.and_, pairwise, -1), masks


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
        for (delta, phi), domain, hypothesis, _, _ in t24.rows(L, corpus, config):
            for q in _bits(domain):
                inst = {"delta": delta, "phi": phi, "q": q}
                expected = oracle.t24_hypothesis(L, config, inst)
                assert bool(hypothesis >> q & 1) == expected, (L.name, inst)
                if expected:
                    hit_deltas.add(delta.tag)
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
        for (f, delta, phi), domain, hypothesis, conclusion, _ in t26.rows(L, corpus, config):
            # an isomorphism keeps every verdict: one comparison per (f, delta, phi)
            assert domain == _proper(f.target)
            assert hypothesis == conclusion == harness.ALL
            inst = {"f": f, "delta": delta, "phi": phi}
            assert oracle.t26_hypothesis(L, config, inst), (L.name, f.describe())
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
    # phi) see different verdicts on the two sides and T26 compares them per
    # p; the others are still decided by one comparison each.
    L = zn_ideal_lattice(24)
    corpus = Corpus((CorpusEntry(L, "solo"),))
    t26, config = REGISTRY["T26"], HarnessConfig()
    forms = Counter()
    for a, b in itertools.combinations(L.proper_elements, 2):
        swap = list(L.elements())
        swap[a], swap[b] = b, a
        f = Isomorphism(L, L, tuple(swap), tuple(swap))
        monkeypatch.setattr(harness, "_isomorphisms", lambda L1, L2: (f,))
        forms.update(
            "agree" if row.conclusion == harness.ALL else "p"
            for row in t26.rows(L, corpus, config)
        )
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


SCALE_COUNTS = {
    # id: (instances_scanned, hypothesis_hits) on the default corpus plus Z720720
    "T01": (1722, 1722), "T02": (1722, 1722), "T03": (6888, 2330),
    "T04": (3444, 324), "T05": (3444, 3444), "T06": (3444, 3444), "T07": (287, 6),
    "T08": (20664, 4697), "T09": (1722, 1722), "T10": (574, 574), "T11": (574, 2),
    "T12": (3444, 0), "T13": (3444, 402), "T14": (20664, 2143),
    "T15": (3444, 85), "T16": (3444, 1079), "T17": (3444, 1079), "T18": (3444, 806),
    "T19": (574, 16), "T20": (3444, 339), "T21": (80_986_956, 13_660_292),
    "T22": (691_872, 159_562), "T23": (3444, 1066), "T24": (3444, 825),
    "T25": (1722, 432), "T26": (70_032, 70_032), "T27": (574, 184), "T28": (3, 3),
}


def test_whole_registry_keeps_its_counts_at_scale():
    # about 3 s when each instance was decided on its own
    with time_limit(8):
        report = run_all(default_corpus().extended(zn_ideal_lattice(720720), "added"))
    assert {r.id: (r.instances_scanned, r.hypothesis_hits) for r in report.results} == (
        SCALE_COUNTS
    )
    assert all(r.violations == 0 for r in report.results)


# -- hunt reads one verdict bitmask per (lattice, predicate) -------------------

EXPONENTS = ("0", "1", "2", "3", "4", "omega")
PHI_FORMS = ("prime", "primary", "d0-primary", "d1-primary")
PREDICATES = [
    "prime", "primary", "idempotent", "d0-primary", "d1-primary",
    *(f"phi{e}-{form}" for e in EXPONENTS for form in PHI_FORMS),
    *(f"{k}-potent-d{d}-primary" for k in range(2, 5) for d in range(2)),
]

# the kernel spelling of each alias: prime is the d0 form, primary the d1 form
KERNEL = {
    f"{head}{alias}": f"{head}{form}"
    for head in ("", *(f"phi{e}-" for e in EXPONENTS))
    for alias, form in (("prime", "d0-primary"), ("primary", "d1-primary"))
}
KERNELS = {KERNEL.get(name, name) for name in PREDICATES}


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


# -- rows against the per-instance statements ----------------------------------

ORACLE = {p.id: p for p in oracle.registry()}


def _negated(prop):
    """The property with its conclusion false everywhere, so every hit is a violation."""
    if isinstance(prop, TheoremProperty):
        return prop._replace(rows=lambda L, corpus, config: (
            row._replace(conclusion=0) for row in prop.rows(L, corpus, config)
        ))
    return replace(prop, conclusion=lambda L, config, inst: False)


@pytest.mark.parametrize("name", HUNT_CORPORA)
def test_rows_equal_the_per_instance_statements(name):
    corpus = Corpus(tuple(CorpusEntry(L, "added") for L in HUNT_CORPORA[name]()))
    assert set(REGISTRY) == set(ORACLE)
    for pid, prop in REGISTRY.items():
        expected = ORACLE[pid]
        assert prop.binding == expected.binding, pid
        got = run_property(prop, corpus).to_dict()
        assert got == oracle.run_property(expected, corpus).to_dict(), pid
        for cap in (3, 10):
            config = HarnessConfig(witness_cap=cap)
            got = run_property(_negated(prop), corpus, config).to_dict()
            want = oracle.run_property(_negated(expected), corpus, config).to_dict()
            assert got == want, (pid, cap)


def test_rows_equal_the_per_instance_statements_under_other_kinds(corpus):
    # spellings make_delta and make_phi accept, and the none kind, which
    # excuses nothing: each reaches the verdicts of its normalized name
    config = HarnessConfig(
        delta_kinds=(" D1",), phi_kinds=("none", "phi5", "PHI2", "phi03"), potency=(2, 5)
    )
    for pid, prop in REGISTRY.items():
        for got, want in ((prop, ORACLE[pid]), (_negated(prop), _negated(ORACLE[pid]))):
            assert run_property(got, corpus, config).to_dict() == (
                oracle.run_property(want, corpus, config).to_dict()
            ), pid


def test_rows_compare_maps_that_are_no_stock_kind(corpus, monkeypatch):
    # A delta under a tag of its own, whose table is the radical's: the order
    # rows compare maps by their keys, so it reads d1's entries, and its tag
    # names no kind to rebuild it from.
    def deltas(L, config):
        return harness._delta(L, "d0"), make_delta(L, "table", L._radical_table, tag="rad")

    monkeypatch.setitem(harness._DOMAINS, "delta", deltas)
    monkeypatch.setitem(oracle._DOMAINS, "delta", deltas)
    for pid in ("T03", "T08"):
        for got, want in ((REGISTRY[pid], ORACLE[pid]),
                          (_negated(REGISTRY[pid]), _negated(ORACLE[pid]))):
            result = run_property(got, corpus).to_dict()
            assert result == oracle.run_property(want, corpus).to_dict(), pid
            assert result["hypothesis_hits"] > 0, pid


# SHA-256, per property, of its rows on HUNT_CORPORA under the default config:
# per row the rendered values, the domain, the hits and the violations, and
# the weights of the domain's elements.  The conclusion outside the hits is
# left out, so a row may decide it differently where its hypothesis fails.
ROW_DIGESTS = {
    "T01": "8ebf86cc6663f86a64a1d0c7600632be202574b33fa2279efbe9cb23bd9aa337",
    "T02": "3541d848b12215ac376d53eefd9b8e315c22783dda4853ee24d245956e58cc54",
    "T03": "cd927459bfeaf8e7b578541dc99e1c4d95638b8dd5d1dde90dc79fa73f63d61e",
    "T04": "2a8dcbcb593cef9022428e56659eccc29652ce29bc5b10314032272a40612b24",
    "T05": "83e71e960031fa825b07b81def9a369274b7b58f1607f275823b6dfce7146829",
    "T06": "181fccbdf894aa3fd1d83daf45362a2edd6e87cd6b80aa44559eec3fb33dd710",
    "T07": "3646e26168b255f022a99a872b201ac2b54df882bcdba3c23c77a0f6aaee04aa",
    "T08": "e5c03429e783c0886f39232fa5f9af94f246df379e82c23df09b28bba3043219",
    "T09": "f0c05f864b4fa1fa59ad6255682aee2190e0e51e42e1713090eab56eb1c5174c",
    "T10": "7667cd9ddfd121f173c0a56ead248a82733aeb472c3ed422d86dc5ef885925f2",
    "T11": "5ac0d62975a7ad7bfb01739e432af5696cf550c776bd9bdef81944299a6fa732",
    "T12": "b91e2cbea5a79e6ca79de64ff62c58c42c8c67b2f2d6f569a88c0320cb2afc8b",
    "T13": "645fde755de0d876f11170a050cc5792ccaf598ccf2f34ed9c88b6b9875dbdc5",
    "T14": "591f39a139cf1a54dff87523e328c711a9331f27b88c20b9c90617e900e2bbc8",
    "T15": "84372440cc66733b3063864bae3f5e5ae5f95f7f21836425dc9ad9f01ba91e57",
    "T16": "697b52596f551f717cbf623065dc1f13dab9e9a5d266e75786c91911bf37c059",
    "T17": "84c40e54250b69ce2b62e340122c1f2ff166dc0e16b5648a2199c81409985819",
    "T18": "9c22807009e9621132693a791d7fdefa6f2c55a565613d2e04c11fc725ef5456",
    "T19": "4bb403a9a17e9caee882a4f7e99b72d221e7b0b04e6b6f09f50214a44ac50482",
    "T20": "c05e88f33e2bbc216df84de708b8d7e8f1ca7e3ebda12fc40ee26405a7d83b65",
    "T21": "1bd32d66ba42512d221df46dc1725ce344dc443a8f082989f46dd5a2b0448e0f",
    "T22": "930d622070d9179395ecfe067906246ef854939148419002dbb1dd1ad4bda2d7",
    "T23": "8c62b4d07d5420bb1ba801213a5d274eb1a8808285c3e2c66790f83aafb69760",
    "T24": "c9c73a04688bfc8ca9486300e4c041fa4d7fd219ba4d8839dc888ffcfa1fe6eb",
    "T25": "46cb604b5fee43297a23548b2f5f57c09e9dc1cb374ad1b24ddcb41d5d3c5014",
    "T26": "3598079faef8dc6c68e8492d8d6bc28f9ae149e792e997d576f7debe0ab3a3da",
    "T27": "4f3d78ffb4e07dc9099f184fd4a145a20af4cafaa0b6675182dca442b2833a52",
    "T28": "f6b6674c1de616fa644cbb519aa6d090e11bde5e6a45df7d319c018a60a0411e",
}


def _row_digest(prop):
    digest, config = hashlib.sha256(), HarnessConfig()
    for lattices in HUNT_CORPORA.values():
        corpus = Corpus(tuple(CorpusEntry(L, "added") for L in lattices()))
        for L in corpus.lattices():
            if L.n <= 1:
                continue
            for values, domain, hypothesis, conclusion, weights in prop.rows(L, corpus, config):
                held = hypothesis & domain
                shown = [harness._render_binding(L, k, v) for k, v in zip(prop.binding, values)]
                counted = None if weights is None else [weights[e] for e in _bits(domain)]
                digest.update(repr(
                    (prop.id, L.name, shown, domain, held, held & ~conclusion, counted)
                ).encode())
    return digest.hexdigest()


def test_rows_keep_their_order_and_masks():
    # the counts alone would miss two rows swapped between bindings
    assert {pid: _row_digest(prop) for pid, prop in REGISTRY.items()} == ROW_DIGESTS


def test_verify_and_hunt_share_their_verdicts(monkeypatch):
    corpus = default_corpus()
    run_all(corpus)
    calls = []
    first_pair = classify._first_pair
    monkeypatch.setattr(classify, "_first_pair", lambda *a: calls.append(a) or first_pair(*a))
    # verify read phi2-d1-primary as the maps (d1, phi2) and d1-primary as (d1, none)
    assert hunt("phi2-d1-primary", "d1-primary", corpus)
    assert calls == []
    # a corpus verify never saw is scanned
    assert hunt("phi2-d1-primary", "d1-primary", default_corpus()) and calls


def test_verify_reads_each_map_condition_once_per_value(monkeypatch):
    # A condition is read once per lattice for each distinct value of the
    # bindings it reads, not once per row: the masks of a staged property's
    # rows, the order of each pair of its maps, and every-phin once per
    # delta.  Read once per row instead, they would be 9,838 store entries,
    # 2,688 map orders and 196 every-phin masks.
    corpus = default_corpus()
    for n in (360, 720):
        corpus = corpus.extended(zn_ideal_lattice(n), "added")
    reads = Counter()
    for name in ("_entry", "map_leq", "_every_phin"):
        read = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, read=read, name=name: (
            reads.update((name,)) or read(*a)
        ))
    run_all(corpus)
    monkeypatch.undo()
    assert reads == {"_entry": 5610, "map_leq": 980, "_every_phin": 86}


def _store_keys(L):
    """The keys of L's verdict store entries, kernel and idempotent, with each
    map key read back as its table through L's interner: twins intern their
    maps in the order they meet them, so only the tables compare across them."""
    kernel, idempotent = classify._kernel_entry.__wrapped__, classify._idempotent_entry.__wrapped__
    found = set()
    for key in L._memo:
        if key[0] is kernel:
            fn, rows, cols, phi, k = key
            found.add((fn, key_table(L, rows), key_table(L, cols), key_table(L, phi), k))
        elif key[0] is idempotent:
            found.add(key)
    return found


def test_verify_reads_the_entries_classify_filled(monkeypatch):
    twin, z24 = zn_ideal_lattice(24), zn_ideal_lattice(24)
    run_all(Corpus((CorpusEntry(twin, "added"),)))
    classification_report(z24, make_delta(z24, "d1"), make_phi(z24, "phi2"))
    filled = _store_keys(z24)
    # every entry classify filled, idempotence included, is one verify reads,
    # for the same maps
    assert filled & _store_keys(twin) == filled
    passes = []
    make_pass = classify._pass
    monkeypatch.setattr(classify, "_pass", lambda L, v: passes.append(L) or make_pass(L, v))
    run_all(Corpus((CorpusEntry(z24, "added"),)))
    assert passes == [z24] * len(_store_keys(twin) - filled)
    assert _store_keys(z24) == _store_keys(twin) | filled


@pytest.mark.parametrize("name", HUNT_CORPORA)
def test_hunt_equals_the_predicate_by_predicate_scan(name):
    corpus = Corpus(tuple(CorpusEntry(L, "added") for L in HUNT_CORPORA[name]()))
    assert len(PREDICATES) == 35
    for lack in PREDICATES:
        for have in PREDICATES:
            assert hunt(have, lack, corpus) == oracle.hunt(have, lack, corpus), (have, lack)
    for have, lack in _two_predicate_queries(1, 300):
        assert hunt(have, lack, corpus) == oracle.hunt(have, lack, corpus), (have, lack)


def test_hunt_repeats_the_hits_of_a_repeated_lattice():
    # the same Z24 object twice and an equal but distinct twin, around a
    # smaller lattice, so every offset into the corpus masks is a sum of sizes
    z24 = zn_ideal_lattice(24)
    lattices = [z24, chain_frame(2), z24, zn_ideal_lattice(24)]
    corpus = Corpus(tuple(CorpusEntry(L, "added") for L in lattices))
    alone = [Corpus((CorpusEntry(L, "added"),)) for L in lattices]
    found = 0
    for lack in PREDICATES:
        for have in ([], *([p] for p in PREDICATES)):
            hits = hunt(have, lack, corpus)
            assert hits == oracle.hunt(have, lack, corpus), (have, lack)
            assert hits == sum((hunt(have, lack, c) for c in alone), ()), (have, lack)
            found += len(hits)
    assert found


def _kernel_keys(L):
    """The distinct (delta table, phi table or None, k) of the 21 kernels, and
    idempotence."""
    deltas = [make_delta(L, f"d{d}").table for d in range(2)]
    phis = [None, *(make_phi(L, f"phi{e}").table for e in EXPONENTS)]
    keys = {(d, phi, 1) for d in deltas for phi in phis}
    return keys | {(d, None, k) for d in deltas for k in range(2, 5)} | {"idempotent"}


def test_warm_hunts_read_masks(monkeypatch):
    def build():
        return default_corpus().extended(zn_ideal_lattice(5040), "added")

    queries = [
        (["phi2-d1-primary"], "d1-primary"),
        (["2-potent-d0-primary", "phi2-d1-primary"], "prime"),
        *_two_predicate_queries(2, 50),
    ]
    # the oracle reads the store too, so it runs on an equal corpus
    twin = build()
    expected = [oracle.hunt(have, lack, twin) for have, lack in queries]
    corpus, passes = build(), Counter()

    def counted(store):
        def counting(L, *args):
            passes[L.name] += 1
            return store(L, *args)

        return _per_lattice(counting)

    monkeypatch.setattr(classify, "_kernel_entry", counted(classify._kernel_entry.__wrapped__))
    idempotent_entry = harness._idempotent_entry.__wrapped__
    monkeypatch.setattr(harness, "_idempotent_entry", counted(idempotent_entry))
    for name in PREDICATES:
        hunt([], name, corpus)
    # an alias reads its kernel's entry, so the 35 names take at most 21
    # passes per lattice: one per kernel, and kernels whose maps have equal
    # tables (phi4 and phiomega on Z16, d0 and d1 on a chain) share one
    assert len(KERNELS) == 21
    assert passes == Counter(L.name for L in corpus.lattices() for _ in _kernel_keys(L))

    def no_store(L, *args):
        raise AssertionError(f"a warm hunt reached {L.name}'s verdict store")

    # the cold hunts kept every mask and hit on the corpus, so a warm query
    # reads no lattice and reaches no store
    for module, store in ((classify, "_kernel_entry"), (harness, "_idempotent_entry"),
                          (harness, "_named")):
        monkeypatch.setattr(module, store, no_store)
    found = 0
    for (have, lack), want in zip(queries, expected):
        assert hunt(have, lack, corpus) == want, (have, lack)
        found += len(want)
    assert found


def test_aliases_share_the_kernel_entry(corpus):
    for L in corpus.lattices():
        for name in PREDICATES:
            kernel = KERNEL.get(name, name)
            assert harness._named(L, name) is harness._named(L, kernel), (L.name, name)
    found = 0
    for alias, kernel in KERNEL.items():
        for have in PREDICATES:
            hits = hunt(have, alias, corpus)
            assert all(h.lacking == alias for h in hits), (have, alias)
            # the same hits as the kernel name, but for the name they echo
            assert [h._replace(lacking=kernel) for h in hits] == list(hunt(have, kernel, corpus))
            found += len(hits)
    assert found


def test_predicate_numerals_have_no_leading_zero():
    for bad in ("phi00-prime", "phi01-primary", "phi02-d1-primary", "phi007-primary",
                "02-potent-d0-primary", "00-potent-d1-primary"):
        with pytest.raises(ValueError, match="unknown predicate"):
            parse_predicate(bad)
    for good in ("phi0-prime", "phi10-primary", "phi100-d0-primary", "10-potent-d1-primary"):
        assert parse_predicate(good).name == good


def test_predicate_witness_rejects_the_top(corpus):
    # a kernel name asks a primality question, which the top cannot answer;
    # idempotent only asks whether top * top = top, and the top is the unit
    for L in (*corpus.lattices(), *SHAPES):
        for name in PREDICATES:
            witness = parse_predicate(name).witness
            if name == "idempotent":
                assert witness(L, L.top) is None, L.name
            else:
                with pytest.raises(ValueError, match="primality needs a proper element"):
                    witness(L, L.top)


# -- _every_phin at the stabilization index ------------------------------------


def _valuation_chain():
    """The chain 0 < x3 < x2 < p < a < 1 whose nonzero proper products add
    valuations v(a) = v(p) = 1 and v(x2) = 2, capped at x3 (v = 3).

    p stabilizes at s = 3 (p, x2, x3, x3, ...) and is phi2-d0-primary but not
    phi3-d0-primary, witnessed by aa = x2: phi3 is the first map at which p
    drops out, so "for every n >= 2" has to check n = s itself.
    """
    labels = ("0", "x3", "x2", "p", "a", "1")
    value = {"x3": 3, "x2": 2, "p": 1, "a": 1}

    def times(x, y):
        if "1" in (x, y):
            return y if x == "1" else x
        if "0" in (x, y):
            return "0"
        return {2: "x2", 3: "x3"}[min(3, value[x] + value[y])]

    leq = [[i <= j for j in range(6)] for i in range(6)]
    mul = [[labels.index(times(x, y)) for y in labels] for x in labels]
    return FiniteMultiplicativeLattice("valchain", labels, leq, mul, 0, 5)


def test_every_phin_checks_the_stabilization_index_itself():
    L = _valuation_chain()
    assert validate(L).ok, validate(L).describe(L)
    p, a = L.index_of("p"), L.index_of("a")
    d0 = make_delta(L, "d0")
    assert power_stabilization(L, p) == 3
    assert phi_delta_primary_violation(L, d0, make_phi(L, "phi2"), p) is None
    assert phi_delta_primary_violation(L, d0, make_phi(L, "phi3"), p) == (a, a)
    every = harness._every_phin(L, d0.key)
    for q in L.proper_elements:
        assert (every >> q & 1) == oracle._every_phin_delta_primary(L, d0, q), L.label(q)
    assert not every >> p & 1


def test_valuation_chain_passes_every_theorem():
    # Under `s > n` in place of `s >= n`, T10 reports FAIL here.
    corpus = Corpus((CorpusEntry(_valuation_chain(), "phin boundary"),))
    statuses = {r.id: r.status for r in run_all(corpus).results}
    vacuous = {"T07", "T11", "T12", "T19", "T28"}
    assert {k for k, v in statuses.items() if v == "VACUOUS"} == vacuous
    assert {v for k, v in statuses.items() if k not in vacuous} == {"PASS"}
    for pid in REGISTRY:
        got = run_property(REGISTRY[pid], corpus).to_dict()
        assert got == oracle.run_property(ORACLE[pid], corpus).to_dict(), pid
