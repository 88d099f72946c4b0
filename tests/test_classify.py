"""Primeness hierarchy predicates, their residual characterizations, and the
per-lattice classification report."""

import json

import pytest

import oracle

from multlat import (
    chain_frame,
    classify,
    classification_report,
    default_corpus,
    is_delta_primary,
    is_n_potent_delta_primary,
    is_phi_delta_primary,
    is_phi_primary,
    is_phi_prime,
    is_primary,
    is_prime,
    make_delta,
    make_phi,
    map_leq,
    residual_characterization_A,
    residual_characterization_B,
    run_all,
    zn_ideal_lattice,
)
from multlat.classify import (
    characterization_A_witness,
    characterization_B_witness,
    compact_pair_violation,
    delta_primary_violation,
    n_potent_violation,
    phi_delta_primary_violation,
    phi_primary_violation,
    phi_prime_violation,
)

DELTA_KINDS = ("d0", "d1")
PHI_KINDS = ("phi0", "phi1", "phi2", "phi3", "phiomega")


def test_prime_frozen(z8, z24):
    assert is_prime(z24, z24.index_of("(3)"))
    assert not is_prime(z24, z24.index_of("(4)"))
    assert not is_prime(z8, z8.index_of("(4)"))
    assert is_primary(z8, z8.index_of("(4)"))


def test_z24_golden_element(z24):
    four = z24.index_of("(4)")
    d0, d1 = make_delta(z24, "d0"), make_delta(z24, "d1")
    phi2 = make_phi(z24, "phi2")
    assert is_phi_delta_primary(z24, d1, phi2, four)
    assert not is_phi_delta_primary(z24, d0, phi2, four)
    assert not is_phi_prime(z24, phi2, four)

    # the classical separating pair: product lands below (4) but not below
    # (4)^2, with neither factor below (4)
    a, b = z24.index_of("(2)"), z24.index_of("(6)")
    ab = z24.mul(a, b)
    assert z24.leq(ab, four)
    assert not z24.leq(ab, phi2.apply(four))
    assert not z24.leq(a, four) and not z24.leq(b, four)


def test_z30_golden_element(z30):
    six = z30.index_of("(6)")
    d0, d1 = make_delta(z30, "d0"), make_delta(z30, "d1")
    phi2 = make_phi(z30, "phi2")
    assert is_phi_delta_primary(z30, d1, phi2, six)
    assert phi2.apply(six) == six  # idempotent, so phi2 excuses everything
    assert not is_delta_primary(z30, d1, six)
    assert delta_primary_violation(z30, d1, six) == (
        z30.index_of("(2)"),
        z30.index_of("(3)"),
    )
    assert not is_n_potent_delta_primary(z30, d0, six, 2)


def test_z8_golden_element(z8):
    four = z8.index_of("(4)")
    d0, d1 = make_delta(z8, "d0"), make_delta(z8, "d1")
    phi2 = make_phi(z8, "phi2")
    assert is_phi_delta_primary(z8, d1, phi2, four)
    assert is_phi_primary(z8, phi2, four)
    assert is_n_potent_delta_primary(z8, d0, four, 2)
    assert not is_prime(z8, four)
    assert z8.power(four, 2) != four


def test_top_is_rejected_everywhere(z8):
    d1, phi2 = make_delta(z8, "d1"), make_phi(z8, "phi2")
    for call in (
        lambda: is_prime(z8, z8.top),
        lambda: is_primary(z8, z8.top),
        lambda: is_delta_primary(z8, d1, z8.top),
        lambda: is_phi_prime(z8, phi2, z8.top),
        lambda: is_phi_delta_primary(z8, d1, phi2, z8.top),
        lambda: is_n_potent_delta_primary(z8, d1, z8.top, 2),
        lambda: residual_characterization_A(z8, d1, phi2, z8.top),
        lambda: residual_characterization_B(z8, d1, phi2, z8.top),
    ):
        with pytest.raises(ValueError):
            call()


def test_potency_exponent_must_be_at_least_two(z8):
    with pytest.raises(ValueError):
        is_n_potent_delta_primary(z8, make_delta(z8, "d1"), z8.index_of("(4)"), 1)


def test_definition_agrees_with_both_characterizations(corpus):
    for L in corpus.lattices():
        for dk in DELTA_KINDS:
            delta = make_delta(L, dk)
            for pk in PHI_KINDS:
                phi = make_phi(L, pk)
                for q in L.proper_elements:
                    d = is_phi_delta_primary(L, delta, phi, q)
                    assert d == residual_characterization_A(L, delta, phi, q)
                    assert d == residual_characterization_B(L, delta, phi, q)


def test_compact_pair_form_matches_all_pairs_form(corpus):
    for L in corpus.lattices():
        delta = make_delta(L, "d1")
        for pk in ("phi0", "phi2"):
            phi = make_phi(L, pk)
            for q in L.proper_elements:
                assert (compact_pair_violation(L, delta, phi, q) is None) == (
                    phi_delta_primary_violation(L, delta, phi, q) is None
                )


def test_delta0_and_delta1_correspondences(corpus):
    for L in corpus.lattices():
        d0, d1 = make_delta(L, "d0"), make_delta(L, "d1")
        for p in L.proper_elements:
            assert is_delta_primary(L, d0, p) == is_prime(L, p)
            assert is_delta_primary(L, d1, p) == is_primary(L, p)


def test_phi_specializations(corpus):
    for L in corpus.lattices():
        d0, d1 = make_delta(L, "d0"), make_delta(L, "d1")
        for pk in PHI_KINDS:
            phi = make_phi(L, pk)
            for p in L.proper_elements:
                assert is_phi_delta_primary(L, d0, phi, p) == is_phi_prime(L, phi, p)
                assert is_phi_delta_primary(L, d1, phi, p) == is_phi_primary(
                    L, phi, p
                )


def test_none_phi_reduces_to_plain_delta_primary(corpus):
    for L in corpus.lattices():
        delta = make_delta(L, "d1")
        none = make_phi(L, "none")
        for p in L.proper_elements:
            assert is_phi_delta_primary(L, delta, none, p) == is_delta_primary(
                L, delta, p
            )


def test_monotone_in_delta_and_phi(corpus):
    for L in corpus.lattices():
        d0, d1 = make_delta(L, "d0"), make_delta(L, "d1")
        assert map_leq(d0, d1)
        phis = [make_phi(L, pk) for pk in PHI_KINDS]
        for p in L.proper_elements:
            for phi in phis:
                if is_phi_delta_primary(L, d0, phi, p):
                    assert is_phi_delta_primary(L, d1, phi, p)
            for g1 in phis:
                for g2 in phis:
                    if map_leq(g1, g2) and is_phi_delta_primary(L, d1, g1, p):
                        assert is_phi_delta_primary(L, d1, g2, p)


def test_violating_pairs_are_lexicographically_first(z8, z24):
    phi2 = make_phi(z24, "phi2")
    assert phi_prime_violation(z24, phi2, z24.index_of("(4)")) == (
        z24.index_of("(2)"),
        z24.index_of("(2)"),
    )
    w = phi_prime_violation(z8, make_phi(z8, "phi2"), z8.index_of("(2)"))
    assert w is None  # (2) is maximal, hence phi2-prime here


def test_classification_report_golden_records(z8, z24, z30):
    rep24 = classification_report(z24, make_delta(z24, "d1"), make_phi(z24, "phi2"))
    rec = rep24.record("(4)")
    assert rec.flags["phi_delta_primary"]
    assert not rec.flags["phi_prime"]
    assert not rec.flags["prime"]
    assert rec.witnesses["phi_prime"] == ("(2)", "(2)")

    rep8 = classification_report(z8, make_delta(z8, "d1"), make_phi(z8, "phi2"))
    rec = rep8.record("(4)")
    assert rec.flags["phi_delta_primary"]
    assert not rec.flags["idempotent"]
    assert rec.flags["2_potent_d0_primary"]

    rep30 = classification_report(z30, make_delta(z30, "d1"), make_phi(z30, "phi2"))
    rec = rep30.record("(6)")
    assert rec.flags["phi_delta_primary"]
    assert not rec.flags["delta_primary"]
    assert not rec.flags["2_potent_d0_primary"]
    assert rec.flags["idempotent"]
    assert rec.witnesses["delta_primary"] == ("(2)", "(3)")


def test_classification_report_shape(z30):
    rep = classification_report(z30, make_delta(z30, "d1"), make_phi(z30, "phi2"))
    assert rep.lattice == "Z30" and rep.delta == "d1" and rep.phi == "phi2"
    assert len(rep.records) == len(z30.proper_elements)
    with pytest.raises(ValueError):
        rep.record("(1)")
    data = rep.to_dict()
    json.dumps(data)  # must be serializable as-is
    labels = [r["element"] for r in data["elements"]]
    assert labels == [z30.label(p) for p in z30.proper_elements]
    for r in data["elements"]:
        for flag, ok in r["flags"].items():
            assert ok == (flag not in r["witnesses"])


def test_text_table_has_a_column_per_potency(z8):
    rep = classification_report(z8, make_delta(z8, "d1"), make_phi(z8, "phi2"), potency=(2, 5))
    header = rep.text_table().splitlines()[1].split()
    assert "5-potent" in header and "3-potent" not in header
    assert len(header) == 1 + len(rep.columns) == 12
    for rec in rep.records:
        assert set(rec.flags) == {flag for flag, _ in rep.columns}


def test_table_maps_with_one_tag_get_their_own_flags(z24):
    # every file table is tagged "table", so only the tables tell them apart
    L, phi0 = z24, make_phi(z24, "phi0")
    deltas = [make_delta(L, "table", make_delta(L, k).table) for k in ("d0", "d1")]
    deltas.append(make_delta(L, "table", [L.top] * L.n))
    phis = [make_phi(L, "table", table=make_phi(L, k).table) for k in ("phi0", "phi2")]
    seen = set()
    for delta in deltas:
        for phi in phis:
            rep = classification_report(L, delta, phi)
            assert (rep.delta, rep.phi) == ("table", "table")
            for p in L.proper_elements:
                flags, witnesses = rep.record(L.label(p)).flags, rep.record(L.label(p)).witnesses
                want = {
                    "delta_primary": oracle.delta_primary_violation(L, delta, p),
                    "weakly_delta_primary": oracle.phi_delta_primary_violation(L, delta, phi0, p),
                    "phi_prime": oracle.phi_prime_violation(L, phi, p),
                    "phi_primary": oracle.phi_primary_violation(L, phi, p),
                    "phi_delta_primary": oracle.phi_delta_primary_violation(L, delta, phi, p),
                    **{f"{k}_potent_delta_primary": oracle.n_potent_violation(L, delta, p, k)
                       for k in (2, 3, 4)},
                }
                for flag, pair in want.items():
                    assert flags[flag] == (pair is None), (flag, L.label(p))
                    assert witnesses.get(flag) == (pair and tuple(map(L.label, pair)))
            seen.add(json.dumps(rep.to_dict()["elements"]))
    assert len(seen) == len(deltas) * len(phis)


def test_maps_from_another_lattice_are_rejected():
    # chain7 and Z30 both have 8 elements, so the tables would index Z30
    chain, z30 = chain_frame(7), zn_ideal_lattice(30)
    assert chain.n == z30.n
    delta, phi, p = make_delta(chain, "d1"), make_phi(chain, "phi2"), z30.index_of("(6)")
    with pytest.raises(ValueError, match="not on Z30"):
        classification_report(z30, delta, phi)
    reads = [
        lambda: delta_primary_violation(z30, delta, p),
        lambda: phi_prime_violation(z30, phi, p),
        lambda: phi_primary_violation(z30, phi, p),
        lambda: phi_delta_primary_violation(z30, delta, phi, p),
        lambda: n_potent_violation(z30, delta, p, 2),
        lambda: compact_pair_violation(z30, delta, phi, p),
        lambda: is_delta_primary(z30, delta, p),
        lambda: is_phi_prime(z30, phi, p),
        lambda: is_phi_primary(z30, phi, p),
        lambda: is_phi_delta_primary(z30, delta, phi, p),
        lambda: is_n_potent_delta_primary(z30, delta, p, 2),
        lambda: characterization_A_witness(z30, delta, phi, p),
        lambda: characterization_B_witness(z30, delta, phi, p),
    ]
    accepted = []
    for i, read in enumerate(reads):
        try:
            read()
        except ValueError as exc:
            assert "not on Z30" in str(exc), i
        else:
            accepted.append(i)
    assert accepted == []


def test_maps_made_on_an_equal_twin_classify_as_the_lattices_own():
    # the twin has interned other maps first, so its keys are not L's
    twin, L = zn_ideal_lattice(360), zn_ideal_lattice(360)
    classification_report(twin, make_delta(twin, "d0"), make_phi(twin, "phiomega"))
    got = classification_report(L, make_delta(twin, "d1"), make_phi(twin, "phi2"))
    want = classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"))
    assert got.to_dict() == want.to_dict()


def test_potency_below_two_is_rejected_before_any_pass():
    # chain0 has no proper element, so no pass would ever reach the exponent
    for L in (chain_frame(0), zn_ideal_lattice(8)):
        with pytest.raises(ValueError, match="potency exponent must be >= 2, got 1"):
            classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"), potency=(3, 1, 0))


def test_a_repeated_potency_exponent_is_rejected_before_any_pass(monkeypatch):
    # one exponent is one column: a repeat would double its cells and
    # witness lines in the text table but not its key in the JSON
    L = zn_ideal_lattice(24)
    calls = []
    monkeypatch.setattr(classify, "_first_pair", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="potency exponent 2 is repeated"):
        classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"), potency=(2, 3, 2))
    assert calls == []


def test_potency_columns_keep_their_order_and_flags_sort_as_strings(z24):
    d1, phi2 = make_delta(z24, "d1"), make_phi(z24, "phi2")
    report = classification_report(z24, d1, phi2, potency=(10, 2))
    assert [h for _, h in report.columns][7:9] == ["10-potent", "2-potent"]
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)
    assert list(json.loads(text)["elements"][0]["flags"])[:2] == [
        "10_potent_delta_primary", "2_potent_d0_primary",
    ]
    bare = classification_report(z24, d1, phi2, potency=())
    assert len(bare.columns) == 9
    assert "2-potent" not in bare.text_table().splitlines()[1].split()
    assert bare.to_json() == json.dumps(bare.to_dict(), indent=2, sort_keys=True)


def test_report_scans_each_distinct_kernel_argument_once(monkeypatch):
    # Columns whose scan arguments coincide at an element share one scan:
    # the k-potent columns once p^k stabilizes, prime and primary at a
    # radical p, 2-pot-d0 at an idempotent p.
    L = zn_ideal_lattice(55440)
    calls, first_pair = [], classify._first_pair
    monkeypatch.setattr(classify, "_first_pair", lambda *a: calls.append(a) or first_pair(*a))
    report = classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"))
    monkeypatch.undo()
    assert len(calls) == len(set(calls)) == 727
    # a twin whose scans were stored in another order renders the same bytes
    twin = zn_ideal_lattice(55440)
    classification_report(twin, make_delta(twin, "d1"), make_phi(twin, "phi0"), potency=(4, 3, 2))
    again = classification_report(twin, make_delta(twin, "d1"), make_phi(twin, "phi2"))
    assert again.to_json() == report.to_json()


def test_verify_scans_each_distinct_kernel_argument_once(monkeypatch):
    # The definition and the compact-pair form are entries of one store, so
    # where their arguments coincide (at d0, and at a radical q under d1) the
    # two read one scan; every other pair of forms scans independently.
    corpus = default_corpus()
    calls, first_pair = [], classify._first_pair
    monkeypatch.setattr(classify, "_first_pair", lambda *a: calls.append(a) or first_pair(*a))
    run_all(corpus)
    monkeypatch.undo()
    distinct = {(id(L), *args) for L, *args in calls}
    assert len(calls) == len(distinct) == 259
