"""Acceptance gate: one test (and one printed verdict line) per criterion.

Criterion 4 demands hypothesis_hits >= 1 for every registered property, so
that no theorem passes merely because the corpus never exercised it.  The one
exception is a property listed in ``multlat.harness.EXPECTED_VACUOUS`` whose
vacuity the test proves on the spot; an expected-vacuous id without such a
proof check fails the criterion.

T12 is the only such id.  Its hypothesis needs a proper nonzero non-nilpotent
element q satisfying the restricted cancellation law, and no finite
multiplicative lattice has one: with s the least exponent such that
q^s = q^(s+1), the pair b = q^(s-1) (b = top when s = 1) and c = q^s gives
q*b = q*c = q^s != 0 with b != c.  The proof check walks every T12 instance,
shows that all the other conjuncts of the hypothesis fire on some of them,
and exhibits that pair, using only ``mul`` and ``power``, wherever they do.
See README.md, "Acceptance status".
"""

import time

from multlat import (
    HarnessConfig,
    classification_report,
    default_corpus,
    enumerate_isomorphisms,
    is_nilpotent,
    is_phi_delta_primary,
    make_delta,
    make_phi,
    map_leq,
    parse_lattice,
    power_stabilization,
    registry,
    run_all,
    serialize,
    structure_profile,
    to_dot,
    validate,
    zn_ideal_lattice,
)
from multlat.classify import (
    is_delta_primary,
    is_primary,
    is_prime,
    residual_characterization_A,
    residual_characterization_B,
)
from multlat.harness import EXPECTED_VACUOUS
from multlat.lattice import FiniteMultiplicativeLattice

DELTA_KINDS = ("d0", "d1")
PHI_KINDS = ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega")


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {status}: {label}{suffix}")
    assert ok, f"criterion {num} — {label}{suffix}"


def test_criterion_1_z24_example_reproduction():
    t0 = time.perf_counter()
    z24 = zn_ideal_lattice(24)
    report = classification_report(z24, make_delta(z24, "d1"), make_phi(z24, "phi2"))
    rec = report.record("(4)")
    ok = (
        rec.flags["phi_delta_primary"] is True
        and rec.flags["phi_prime"] is False
        and rec.flags["prime"] is False
    )
    # the classical pair (2), (6) violates phi2-primeness of (4):
    # product below (4) but not below (4)^2, neither factor below (4)
    a, b, four = (z24.index_of(x) for x in ("(2)", "(6)", "(4)"))
    ab = z24.mul(a, b)
    ok = ok and z24.leq(ab, four)
    ok = ok and not z24.leq(ab, z24.power(four, 2))
    ok = ok and not z24.leq(a, four) and not z24.leq(b, four)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, "Z24 golden element (4)", ok, f"{elapsed:.3f}s")


def test_criterion_2_z30_example_reproduction():
    t0 = time.perf_counter()
    z30 = zn_ideal_lattice(30)
    report = classification_report(z30, make_delta(z30, "d1"), make_phi(z30, "phi2"))
    rec = report.record("(6)")
    ok = (
        rec.flags["phi_delta_primary"] is True
        and rec.flags["delta_primary"] is False
        and rec.witnesses["delta_primary"] == ("(2)", "(3)")
        and rec.flags["2_potent_d0_primary"] is False
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, "Z30 golden element (6)", ok, f"{elapsed:.3f}s")


def test_criterion_3_z8_example_reproduction():
    t0 = time.perf_counter()
    z8 = zn_ideal_lattice(8)
    report = classification_report(z8, make_delta(z8, "d1"), make_phi(z8, "phi2"))
    rec = report.record("(4)")
    ok = (
        rec.flags["phi_delta_primary"] is True
        and rec.flags["idempotent"] is False
        and rec.flags["2_potent_d0_primary"] is True
        and rec.flags["prime"] is False
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(3, "Z8 golden element (4)", ok, f"{elapsed:.3f}s")


def _prove_t12_vacuous(result, corpus, config):
    """Check that T12 is vacuous because restricted cancellation alone fails.

    Every instance on which the other conjuncts of the hypothesis hold (Noether
    lattice, q nonzero and not nilpotent, phi <= phi2) must carry an explicit
    pair (b, c) with q*b = q*c != 0 and b != c, built from the least s with
    q^s = q^(s+1).  Returns (ok, detail).
    """
    prop = next(p for p in registry() if p.id == "T12")
    scanned = candidates = 0
    unbroken = []
    for L in corpus.lattices():
        if L.n <= 1:  # skipped by the harness too
            continue
        noether = structure_profile(L).noether
        phi2 = make_phi(L, "phi2")
        # one row per (delta, phi), over the instances q of its domain
        for (_, phi), domain, _, _, _ in prop.rows(L, corpus, config):
            for q in (q for q in range(L.n) if domain >> q & 1):
                scanned += 1
                if not (
                    noether
                    and q != L.bottom
                    and not is_nilpotent(L, q)
                    and map_leq(phi, phi2)
                ):
                    continue
                candidates += 1
                s = power_stabilization(L, q)
                b = L.top if s == 1 else L.power(q, s - 1)
                c = L.power(q, s)
                qb = L.mul(q, b)
                if not (qb == L.mul(q, c) and qb != L.bottom and b != c):
                    unbroken.append(f"{L.name} {L.labels[q]}")
    ok = (
        result.instances_scanned == scanned > 0
        and result.hypothesis_hits == 0
        and candidates > 0
        and not unbroken
    )
    detail = (
        f"T12: {result.instances_scanned} scanned, "
        f"{result.hypothesis_hits} hits, {candidates}/{scanned} instances "
        "fail only on cancellation"
    )
    if unbroken:
        at = ", ".join(dict.fromkeys(unbroken))
        detail += f", no cancellation counterexample at {at}"
    return ok, detail


# expected-vacuous property id -> check proving its hypothesis empty
VACUITY_PROOFS = {"T12": _prove_t12_vacuous}


def test_criterion_4_theorem_suite():
    corpus, config = default_corpus(), HarnessConfig()
    t0 = time.perf_counter()
    report = run_all(corpus, config)
    elapsed = time.perf_counter() - t0
    results = report.results
    failing = [r.id for r in results if r.violations]
    enough = len(results) >= 28
    expected = EXPECTED_VACUOUS
    floor_misses = [
        r.id for r in results if r.hypothesis_hits == 0 and r.id not in expected
    ]
    unproved = [pid for pid in expected if pid not in VACUITY_PROOFS]
    proofs = [
        VACUITY_PROOFS[pid](report.result(pid), corpus, config)
        for pid in expected
        if pid in VACUITY_PROOFS
    ]
    ok = (
        not failing
        and enough
        and elapsed < 60.0
        and not floor_misses
        and not unproved
        and all(proved for proved, _ in proofs)
    )
    detail = f"{len(results)} properties, {elapsed:.2f}s"
    if failing:
        detail += f"; violations in {', '.join(failing)}"
    if floor_misses:
        detail += f"; no hypothesis instances for {', '.join(floor_misses)}"
    if unproved:
        detail += f"; expected vacuous without a proof check: {', '.join(unproved)}"
    for _, proof_detail in proofs:
        detail += f"; {proof_detail}"
    label = "verification suite: 0 violations, hits floor or proved vacuity"
    _verdict(4, label, ok, detail)


def test_criterion_5_characterization_oracle():
    disagreements = 0
    for L in default_corpus().lattices():
        for dk in DELTA_KINDS:
            delta = make_delta(L, dk)
            for pk in PHI_KINDS:
                phi = make_phi(L, pk)
                for q in L.proper_elements:
                    d = is_phi_delta_primary(L, delta, phi, q)
                    if d != residual_characterization_A(L, delta, phi, q):
                        disagreements += 1
                    if d != residual_characterization_B(L, delta, phi, q):
                        disagreements += 1
    _verdict(
        5,
        "definition == characterization A == characterization B",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_6_delta_correspondences():
    bad = 0
    for L in default_corpus().lattices():
        d0, d1 = make_delta(L, "d0"), make_delta(L, "d1")
        for p in L.proper_elements:
            if is_delta_primary(L, d0, p) != is_prime(L, p):
                bad += 1
            if is_delta_primary(L, d1, p) != is_primary(L, p):
                bad += 1
    _verdict(6, "d0-primary == prime and d1-primary == primary", bad == 0)


def test_criterion_7_isomorphism_transfer():
    z8, z27 = zn_ideal_lattice(8), zn_ideal_lattice(27)
    isos = enumerate_isomorphisms(z8, z27)
    ok = len(isos) == 1
    violations = 0
    if ok:
        f = isos[0]
        for dk in DELTA_KINDS:
            ds, dt = make_delta(z8, dk), make_delta(z27, dk)
            for pk in PHI_KINDS:
                ps, pt = make_phi(z8, pk), make_phi(z27, pk)
                for q in z8.proper_elements:
                    fwd = is_phi_delta_primary(z27, dt, pt, f.apply(q))
                    if fwd != is_phi_delta_primary(z8, ds, ps, q):
                        violations += 1
                for q in z27.proper_elements:
                    back = is_phi_delta_primary(z8, ds, ps, f.pull_back(q))
                    if back != is_phi_delta_primary(z27, dt, pt, q):
                        violations += 1
    ok = ok and violations == 0
    _verdict(
        7,
        "unique Z8 -> Z27 isomorphism transfers classification",
        ok,
        f"{len(isos)} isomorphism(s), {violations} transfer violations",
    )


def test_criterion_8_round_trip_and_dot():
    ok = all(parse_lattice(serialize(L)) == L for L in default_corpus().lattices())
    dot = to_dot(zn_ideal_lattice(8))
    lines = [ln.strip() for ln in dot.splitlines()]
    edges = [ln for ln in lines if "->" in ln]
    nodes = [
        ln
        for ln in lines
        if ln.endswith(";") and "->" not in ln and "rankdir" not in ln
    ]
    ok = ok and len(nodes) == 4 and len(edges) == 3
    _verdict(8, "serialize/parse round-trip and Z8 DOT shape", ok,
             f"{len(nodes)} nodes, {len(edges)} edges")


def test_criterion_9_validator_mutation_sweep():
    t0 = time.perf_counter()
    z24 = zn_ideal_lattice(24)
    n = z24.n
    total = undetected = 0
    for a in range(n):
        for b in range(n):
            orig = z24.mul_table[a][b]
            for v in range(n):
                if v == orig:
                    continue
                total += 1
                mul = [list(row) for row in z24.mul_table]
                mul[a][b] = v
                mutant = FiniteMultiplicativeLattice(
                    "Z24-mutant", z24.labels, z24.leq_table, mul,
                    z24.bottom, z24.top,
                )
                if validate(mutant).ok:
                    undetected += 1
    elapsed = time.perf_counter() - t0
    ok = total == 448 and undetected == 0 and elapsed < 30.0
    _verdict(
        9,
        "every single-entry mul mutation of Z24 is rejected",
        ok,
        f"{total} mutants, {undetected} undetected, {elapsed:.2f}s",
    )
