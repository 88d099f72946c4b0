"""Tests of the benchmark itself (not of multlat).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import ast
import json
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import multlat  # noqa: E402
from checks import CheckFailed, Oracle, check_classify, check_hunt, digest  # noqa: E402
from layers import build_lattice, mutate, render_hunt, run_untraced  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from hostspeed import SpeedClock  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from worker import run_jobs  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    MUTATION_AXIOM,
    WORKLOADS,
    grammar_predicates,
    jobs_for,
    random_predicate,
    same_signature,
    signature,
)


def test_same_seed_same_jobs_other_seed_other_jobs():
    for w in WORKLOADS:
        assert jobs_for(w, 7) == jobs_for(w, 7)
        assert jobs_for(w, 7) != jobs_for(w, 8)


def test_same_seed_same_digests_as_pinned():
    """The two cheapest classify rungs, run twice, reproduce the pinned digests."""
    pinned = json.loads((BENCH / "digests.json").read_text())
    assert pinned["seed"] == DEFAULT_SEED
    jobs = jobs_for("classify-ladder", DEFAULT_SEED)[:2]
    for _ in range(2):
        got = [digest(*run_untraced(job, {})) for job in jobs]
        assert got == pinned["workloads"]["classify-ladder"][:2]


def test_same_signature_keeps_the_shape():
    moduli = same_signature(360)
    assert moduli[0] == 360 and moduli == sorted(set(moduli)) and moduli[-1] <= 10**6
    assert {signature(m) for m in moduli} == {(3, 2, 1)}
    assert same_signature(720720) == [720720, 942480]


def test_hunt_sweep_warms_every_predicate_its_queries_draw():
    rng = random.Random(0)
    drawn = {random_predicate(rng) for _ in range(5000)}
    assert drawn == set(grammar_predicates())
    for name in drawn:
        multlat.parse_predicate(name)
    jobs = jobs_for("hunt-sweep", DEFAULT_SEED)
    warm = len(grammar_predicates())
    assert [j["lack"] for j in jobs[:warm]] == grammar_predicates()
    assert all(j["have"] == [] for j in jobs[:warm]) and all(j["have"] for j in jobs[warm:])


def _classify(job):
    rc, out, err = run_untraced(job, {})
    return build_lattice(job["source"]), job, rc, out, err


def test_witness_checker_accepts_real_and_rejects_tampered_pairs():
    L, job, rc, out, err = _classify(jobs_for("classify-ladder", 3)[0])
    check_classify(L, job["delta"], job["phi"], rc, out, err)
    report = json.loads(out)
    rec = next(r for r in report["elements"] if "prime" in r["witnesses"])
    top = L.label(L.top)
    rec["witnesses"]["prime"] = [top, top]  # top*top <= p never holds for proper p
    with pytest.raises(CheckFailed):
        check_classify(L, job["delta"], job["phi"], rc, json.dumps(report), err)


def test_witness_checker_rejects_a_tampered_hunt_pair():
    corpus = multlat.default_corpus()
    hits = multlat.hunt("phi2-d1-primary", "d1-primary", corpus)
    oracles = {L.name: Oracle(L) for L in corpus.lattices()}
    out = render_hunt(hits)
    check_hunt(oracles, "d1-primary", 0, out, "")
    tampered = json.loads(out)
    tampered[0]["pair"] = [tampered[0]["element"], tampered[0]["element"]]
    with pytest.raises(CheckFailed):
        check_hunt(oracles, "d1-primary", 0, json.dumps(tampered), "")


@pytest.mark.parametrize("kind", sorted(MUTATION_AXIOM))
def test_each_mutation_breaks_its_axiom(kind):
    for L in (multlat.zn_ideal_lattice(12), multlat.boolean_frame(3)):
        text = mutate(L, multlat.serialize(L), kind)
        with pytest.raises(multlat.LatticeValidationError) as info:
            multlat.parse_lattice(text)
        assert MUTATION_AXIOM[kind] in info.value.report.axiom_names()


def test_self_time_on_a_synthetic_span_tree():
    # job [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and c [8, 12]
    # (sticking out); a has child a1 [2, 3].
    spans = [
        ["job", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a1", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["a", 20.0, 21.0, None, 1],
    ]
    got = self_times(spans)
    assert got == pytest.approx({"job": 10 - 5 - 2, "a": 2 + 1, "a1": 1, "b": 3, "c": 4})


def test_tracer_records_parent_and_job():
    tr = Tracer()
    tr.job = 4
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    (n0, s0, e0, p0, j0), (n1, s1, e1, p1, j1) = tr.spans
    assert (n0, p0, j0, n1, p1, j1) == ("outer", None, 4, "inner", 0, 4)
    assert s0 <= s1 <= e1 <= e0


def test_speed_clock_charges_each_stretch_at_its_probed_rate(monkeypatch):
    """Probes reading 2x then 4x the reference halve, then quarter, the CPU time charged."""
    clock = SpeedClock()
    clock.marks = [1.0, 2.0, 3.0, 4.0]
    clock.probes = [2 * hostspeed.PROBE_REF_S] * 2 + [4 * hostspeed.PROBE_REF_S] * 2
    monkeypatch.setattr(hostspeed.signal, "setitimer", lambda *args: None)
    monkeypatch.setattr(hostspeed.signal, "signal", lambda *args: None)
    clock.stop()
    ref = clock.reference
    assert ref(0.5) == pytest.approx(0.25)  # before the first probe: the first rate
    assert ref(2.0) - ref(1.0) == pytest.approx(0.5)
    assert ref(3.0) - ref(2.0) == pytest.approx(1 / 3)  # bracketed by a 2x and a 4x probe
    assert ref(3.5) - ref(3.0) == pytest.approx(0.125)
    assert ref(5.0) - ref(4.0) == pytest.approx(0.25)  # after the last probe: the last rate


def test_speed_clock_probes_while_the_program_runs_and_leaves_the_probes_out():
    clock = SpeedClock()
    clock.start()
    try:
        readings = []
        probed0, c0 = clock.probe_cpu, time.thread_time()
        while time.thread_time() - c0 < 0.3:
            readings.append(clock.cpu())
        probed1, c1 = clock.probe_cpu, time.thread_time()
    finally:
        clock.stop()
    assert len(clock.probes) >= 10 and probed1 > probed0
    assert readings == sorted(readings)
    assert readings[-1] - readings[0] == pytest.approx((c1 - c0) - (probed1 - probed0), abs=0.005)
    span = clock.reference(readings[-1]) - clock.reference(readings[0])
    cpu = readings[-1] - readings[0]
    ref = hostspeed.PROBE_REF_S
    assert cpu * ref / max(clock.probes) <= span <= cpu * ref / min(clock.probes)


def test_hang_guard_fails_the_slow_job_and_the_rest():
    def run_one(i, job):
        if job == "hang":
            while True:
                time.sleep(0.01)
        return 0, "", ""

    results = run_jobs(["ok", "hang", "ok", "ok"], run_one, timeout=0.2)
    assert [r["why"] is None for r in results] == [True, False, False, False]
    assert results[1]["why"].startswith("timeout")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _multlat_names_used(tree):
    """(module, name) for every `from multlat... import name` and `import multlat...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multlat"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multlat"):
                    yield alias.name, None


def test_benchmark_uses_public_api_only():
    """multlat.__all__ and multlat.cli.main only; no _private names, no cache internals.

    Later changes may replace the engine's lru_caches with per-lattice
    tables; a benchmark that reached into them would break or lie.
    """
    public = set(multlat.__all__)
    sources = [p for p in BENCH.rglob("*.py") if "tests" not in p.parts]
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text())
        for module, name in _multlat_names_used(tree):
            allowed = (module == "multlat" and name in public) or (
                module == "multlat.cli" and name == "main"
            )
            assert allowed, f"{path.name}: imports {module}.{name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attr = node.attr
                private = attr.startswith("_") and not attr.startswith("__")
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                assert not (private and not on_self), f"{path.name}:{node.lineno} uses .{attr}"
                assert attr not in ("cache_info", "cache_clear", "cache_parameters"), (
                    f"{path.name}:{node.lineno} uses .{attr}"
                )
