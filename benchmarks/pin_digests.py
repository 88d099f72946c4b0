"""Re-pin benchmarks/digests.json: every job's exit code and output SHA-256 at the default seed.

    python3 benchmarks/pin_digests.py

Run from the repository root, only when the program's output is meant to
change; the digests are the gate a performance change must leave unmoved.
Jobs that fail any check other than the digest comparison abort the pin.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, run_round
from workloads import DEFAULT_SEED, jobs_for


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        r = run_round(workload, DEFAULT_SEED, 0, len(jobs_for(workload, DEFAULT_SEED)))
        bad = [j["why"] for j in r["jobs"] if j["why"] and not j["why"].startswith("digest ")]
        if r.get("crashed") or bad:
            print(f"{workload}: not pinned, jobs fail: {bad[:3]}", file=sys.stderr)
            return 1
        pins[workload] = [j["digest"] for j in r["jobs"]]
        print(f"{workload}: {len(pins[workload])} digests")
    doc = {"seed": DEFAULT_SEED, "format": "<exit code>:<sha256(stdout NUL stderr)>",
           "workloads": pins}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
