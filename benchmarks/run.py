"""multlat benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload classify-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each round starts a fresh worker process
(benchmarks/worker.py) that sets up the workload's inputs from the seed, runs
its job list against the program in src/ and checks every output.  Rounds
repeat until --seconds would be exceeded; the figures are medians over
rounds, and every time is the worker's CPU time charged at a fixed
reference speed of the host (hostspeed.py; README.md says why).  --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced
rounds and prints the per-layer metrics, including the tracing overhead.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, jobs_for  # noqa: E402

WORKER_TIMEOUT_S = 120  # kills a worker stuck outside any job; a run still ends within 180 s

END_TO_END = {
    "work_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_s.p50": "s",
    "job_s.p90": "s",
}

CLASSIFY_KERNELS = (
    "prime", "primary", "delta_primary", "phi_prime", "phi_primary",
    "phi_delta_primary", "n_potent",
)
PER_LAYER = {
    "lattice.build_s": "s",
    "constructions.corpus_s": "s",
    "constructions.serialize_s": "s",
    "lattice.lub_table_s": "s",
    "derived.radical_table_s": "s",
    "maps.make_delta_s": "s",
    "maps.make_phi_s": "s",
    "cli.render_s": "s",
    **{f"classify.{k}_s": "s" for k in CLASSIFY_KERNELS},
    "classify.report_s": "s",
    "classify.pairs_scanned": "count",
    **{f"harness.property_s.T{i:02d}": "s" for i in range(1, 29)},
    "harness.instances_scanned": "count",
    "harness.hypothesis_hits": "count",
    "maps.is_monotone_call_s": "s",
    "maps.isomorphisms_s": "s",
    "derived.residual_table_s": "s",
    "derived.structure_profile_s": "s",
    "classify.characterization_s": "s",
    "harness.hunt_s": "s",
    "mem.retained_mb": "MB",
    "lattice.validate_s": "s",
    "constructions.parse_s": "s",
    "lattice.glb_table_s": "s",
    "lattice.covers_s": "s",
    "trace.overhead_s": "s",
}


class NoResult(Exception):
    """The benchmark cannot produce a result at all (not a failed job)."""


def run_round(workload: str, seed: int, trace: int, n_jobs: int) -> dict:
    """One fresh worker; a crash or kill counts every job of the round as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round killed after {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return {"trace": trace, "crashed": True, "jobs": [{"why": "killed"}] * n_jobs}
    if proc.returncode == 3:
        raise NoResult(proc.stderr.strip())
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return {"trace": trace, "crashed": True, "jobs": [{"why": "crashed"}] * n_jobs}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["trace"] = trace
    out["setup_wall_s"] = out["setup_done"] - spawned
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Medians over rounds; job percentiles are taken within each round first."""
    ok = [r for r in rounds if not r.get("crashed")]
    latencies = [[j["s"] for j in r["jobs"] if not j["why"]] for r in ok]
    latencies = [lat for lat in latencies if lat]
    if not latencies:
        raise NoResult("no round had a successful job")
    p90s = [percentile(lat, 90) for lat in latencies]
    values = {
        "work_s": statistics.median(r["work_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "job_s.p50": statistics.median(percentile(lat, 50) for lat in latencies),
        "job_s.p90": statistics.median(p90s),
    }
    beyond = min(sum(s > p90 for s in lat) for lat, p90 in zip(latencies, p90s))
    notes = [
        f"rounds: {len(ok)}; successful jobs per round: {len(latencies[0])}, "
        f"at least {beyond} beyond the round's p90",
        f"not metrics: job list {statistics.median(r['work_cpu_s'] for r in ok):.4f} s raw CPU, "
        f"{statistics.median(r['wall_s'] for r in ok):.4f} s wall; spawn to first job "
        f"{statistics.median(r['setup_wall_s'] for r in ok):.4f} s wall; host slowdown "
        f"{statistics.median(r['slowdown'] for r in ok):.3f}",
    ]
    return values, notes


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    plain = [r for r in rounds if r["trace"] == 0 and not r.get("crashed")]
    traced = [r for r in rounds if r["trace"] == 1 and not r.get("crashed")]
    if not plain or not traced:
        raise NoResult("no complete pair of untraced and traced rounds")
    values = {}
    for name in PER_LAYER:
        per_round = [r["self_s"].get(name, r["counts"].get(name, 0)) for r in traced]
        values[name] = statistics.median(per_round)
    values["mem.retained_mb"] = statistics.median(r["retained_mb"] for r in traced)
    plain_work = statistics.median(r["work_s"] for r in plain)
    traced_work = statistics.median(r["work_s"] for r in traced)
    values["trace.overhead_s"] = traced_work - plain_work
    notes = [f"traced rounds: {len(traced)}, untraced rounds: {len(plain)}; "
             f"work_s untraced {plain_work:.4f} s, traced {traced_work:.4f} s; "
             f"spans per traced round: {statistics.median(r['spans'] for r in traced):.0f}"]
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "multlat" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'multlat'} is missing",
              file=sys.stderr)
        return 2

    n_jobs = len(jobs_for(args.workload, args.seed))
    kinds = (0, 1) if args.trace else (0,)
    rounds: list[dict] = []
    start = time.monotonic()
    try:
        # Stop before a further round (pair, when tracing) would overrun --seconds.
        while True:
            for trace in kinds:
                rounds.append(run_round(args.workload, args.seed, trace, n_jobs))
            elapsed = time.monotonic() - start
            if elapsed * (1 + len(kinds) / len(rounds)) > args.seconds:
                break
        values, notes = (per_layer if args.trace else end_to_end)(rounds)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(len(r["jobs"]) for r in rounds)
    failed = sum(1 for r in rounds for j in r["jobs"] if j["why"])
    print(f"{args.workload} seed {args.seed}: {attempted} jobs attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4f})")
    for r in rounds:
        for j in r["jobs"]:
            if j["why"]:
                print(f"  failed: {j['why']}")
                break
    for note in notes:
        print(note)
    for name, value in values.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
