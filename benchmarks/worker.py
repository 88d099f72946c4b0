"""One benchmark round in a fresh process: set up, run the job list, check it.

    PYTHONPATH=src python3 benchmarks/worker.py --workload W --seed N --trace 0|1

run.py starts one of these per round, so every round pays the cold start a
user pays: multlat's module-level caches are keyed by lattice value and would
turn a second run in the same process into dictionary lookups.  Times are
this process's CPU seconds at a fixed reference speed of the host
(hostspeed.SpeedClock, see README.md); raw CPU and wall clock are reported
beside them.  The last line of stdout is one JSON object; the program's own
output is captured and never reaches it.  Exit code 3 means the program
could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

from checks import (
    CheckFailed,
    Oracle,
    check_classify,
    check_hunt,
    check_validate,
    check_verify,
    digest,
)
from hostspeed import SpeedClock
from tracing import Tracer, self_times
from workloads import DEFAULT_SEED, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
JOB_TIMEOUT_S = 60  # about 10x the slowest job; past it the round stops


class JobTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in the program swallows it."""


def _alarm(signum, frame):
    raise JobTimeout


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_jobs(jobs, run_one, timeout=JOB_TIMEOUT_S, clock=time.process_time):
    """Time each job under the hang guard; after a timeout the rest count as failed.

    Each result holds the clock readings at the job's start and end.
    """
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for i, job in enumerate(jobs):
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                rc, out, err = run_one(i, job)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            results.append({"start": t0, "end": clock(), "why": f"timeout after {timeout}s"})
            t = clock()
            results += [{"start": t, "end": t, "why": "not run: earlier job timed out"}
                        for _ in range(len(jobs) - i - 1)]
            break
        except Exception as exc:  # the job's failure is the measurement, not ours
            results.append({"start": t0, "end": clock(), "why": f"raised {exc!r}"})
            continue
        results.append({"start": t0, "end": clock(), "why": None, "out": (rc, out, err)})
    return results


def check_all(workload, jobs, results, ctx, pinned, build_lattice):
    """Attach a digest to every job that ran and fail the ones whose output is wrong."""
    oracles = {}
    if workload == "hunt-sweep":
        oracles = {L.name: Oracle(L) for L in ctx["corpus"].lattices()}
    for i, (job, res) in enumerate(zip(jobs, results)):
        if "out" not in res:
            continue
        rc, out, err = res.pop("out")
        res["digest"] = digest(rc, out, err)
        try:
            if rc == 2:
                raise CheckFailed(f"usage error: {err.strip()}")
            if workload == "classify-ladder":
                L = build_lattice(job["source"])
                check_classify(L, job["delta"], job["phi"], rc, out, err)
            elif workload == "verify-corpus":
                check_verify(rc, out, err)
            elif workload == "hunt-sweep":
                check_hunt(oracles, job["lack"], rc, out, err)
            else:
                check_validate(job["name"], job["expect_axiom"], rc, out, err)
            want = pinned[i] if pinned is not None and i < len(pinned) else None
            if pinned is not None and want != res["digest"]:
                raise CheckFailed(f"digest {res['digest']} differs from pinned {want}")
        except CheckFailed as exc:
            res["why"] = str(exc)
        except Exception as exc:  # a checker crash on odd output is a failed job too
            res["why"] = f"check raised {exc!r}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    clock = SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args, clock) -> int:
    try:
        import layers  # imports multlat
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 3

    jobs = jobs_for(args.workload, args.seed)
    tr = Tracer(clock.cpu) if args.trace else layers.NullTracer()
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = layers.setup(args.workload, args.seed, jobs, workdir, tr)
        if args.trace:
            forcer = layers.KernelForcer(tr)

            def run_one(i, job):
                tr.job = i
                with tr.span("job"):
                    return layers.run_traced(tr, forcer, args.workload, job, ctx)
        else:

            def run_one(i, job):
                return layers.run_untraced(job, ctx)

        rss_setup = peak_rss_mb()
        setup_cpu, setup_done = clock.cpu(), time.monotonic()
        results = run_jobs(jobs, run_one, clock=clock.cpu)
        end_cpu, wall = clock.cpu(), time.monotonic() - setup_done
        rss = peak_rss_mb()
        if args.trace:
            layers.census(tr)
        clock.stop()
        pinned = None
        if args.seed == DEFAULT_SEED and DIGESTS.exists():
            pinned = json.loads(DIGESTS.read_text())["workloads"].get(args.workload)
        check_all(args.workload, jobs, results, ctx, pinned, layers.build_lattice)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref = clock.reference
    for res in results:
        res["s"] = ref(res.pop("end")) - ref(res.pop("start"))
    if args.trace:
        for span in tr.spans:
            span[1], span[2] = ref(span[1]), ref(span[2])
    report = {
        "setup_s": ref(setup_cpu),
        "setup_done": setup_done,
        "work_s": ref(end_cpu) - ref(setup_cpu),
        "work_cpu_s": end_cpu - setup_cpu,
        "wall_s": wall,
        "slowdown": clock.slowdown(),
        "peak_rss_mb": rss,
        "retained_mb": rss - rss_setup,
        "jobs": results,
    }
    if args.trace:
        report["self_s"] = self_times(tr.spans)
        report["counts"] = dict(tr.counts)
        report["spans"] = len(tr.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
