"""Seeded job lists for the four benchmark workloads.

Everything here is pure: the same (workload, seed) always yields the same
jobs, byte for byte.  Nothing in this module imports multlat, so the job
lists can be built and compared without the program under test.

A job is a plain dict.  ``kind`` selects how the worker runs it:

- ``cli``: ``multlat.cli.main(argv)``, stdout/stderr captured;
- ``hunt``: ``multlat.hunt(have, lack, corpus)`` against the workload's
  shared corpus, rendered the way ``multlat hunt --format json`` renders it.

The remaining keys describe the input in terms the output checker needs
(lattice source, delta/phi spec, expected verdict).
"""

from __future__ import annotations

import random

WORKLOADS = ("classify-ladder", "verify-corpus", "hunt-sweep", "load-validate")
DEFAULT_SEED = 1
ZN_LIMIT = 10**6  # largest modulus zn_ideal_lattice accepts
# zn_ideal_lattice(n) scans every integer up to n for divisors, so building
# Zn costs time in proportion to n (about 0.05 s at n = 10^6), whatever its
# shape.  Moduli are drawn from the top tenth of the range, where that cost
# moves by at most 10% from seed to seed.  For the Z720720 shape this leaves
# one modulus, 942480.
MODULUS_FLOOR = ZN_LIMIT * 9 // 10

# Rungs of the classify ladder, named by the modulus whose exponent signature
# the seed keeps (24, 60, 120 and 240 elements).
LADDER = (360, 5040, 55440, 720720)
# Every rung runs the CLI defaults (delta d1, phi 2), the command a classify
# user types.  A per-rung delta/phi draw was tried and dropped: the cost of a
# rung moves up to 3x with phi (phi1 excuses every product and makes three
# kernels full n^2 scans), so the median job and the round time would follow
# the draw rather than the program.  The seed still moves every Zn rung's
# labels and element order; hunt-sweep draws every delta/phi combination.
LADDER_DELTA_PHI = ("d1", "2")
BOOLEAN_RUNG = 6  # boolean_frame(6), 64 elements

VERIFY_SHAPES = (360, 720)  # 24 and 30 elements, added to the default corpus
HUNT_SHAPES = (5040, 55440)  # 60 and 120 elements, added to the default corpus
HUNTS_PER_ROUND = 2000
HUNT_EXPONENTS = ("0", "1", "2", "3", "4", "omega")

# load-validate: two Zn shapes in the 36-48 element range plus boolean_frame(5).
VALIDATE_SHAPES = (1260, 1680)  # 36 and 40 elements
VALIDATE_BOOLEAN = 5
# Each mutation kind, in file order, and the axiom it is built to break;
# cmd_validate must name that axiom.
MUTATION_AXIOM = {
    "annihilate": "mul-annihilates-bottom",
    "identity": "mul-identity",
    "monotone": "mul-monotone",
}


def factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def signature(n: int) -> tuple[int, ...]:
    """Prime exponents of n, largest first: the shape of Zn's ideal lattice."""
    return tuple(sorted(factor(n).values(), reverse=True))


def _primes_upto(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def same_signature(n: int, limit: int = ZN_LIMIT) -> list[int]:
    """Every m <= limit whose exponent signature equals n's, ascending.

    Zm and Zn then have isomorphic ideal lattices: the shape is fixed while
    labels and element order (hence where first-witness searches stop) vary.
    """
    exps = signature(n)
    total = sum(exps)
    # Every other prime factor is at least 2, so no prime exceeds this.
    primes = _primes_upto(max(2, limit >> (total - 1)))
    found: list[int] = []

    def place(i: int, value: int, used: frozenset, floor: int) -> None:
        if i == len(exps):
            found.append(value)
            return
        # Equal exponents take increasing primes so each m is produced once.
        start = floor if i and exps[i] == exps[i - 1] else 0
        for j in range(start, len(primes)):
            p = primes[j]
            v = value * p ** exps[i]
            if v > limit:
                break
            if p not in used:
                place(i + 1, v, used | {p}, j + 1)

    place(0, 1, frozenset(), 0)
    return sorted(found)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _draw_modulus(rng: random.Random, shape: int) -> int:
    return rng.choice([m for m in same_signature(shape) if m >= MODULUS_FLOOR])


def classify_ladder(seed: int) -> list[dict]:
    rng = _rng("classify-ladder", seed)
    sources = [{"zn": _draw_modulus(rng, shape)} for shape in LADDER]
    sources.append({"boolean": BOOLEAN_RUNG})
    return [_classify_job(src) for src in sources]


def _classify_job(source: dict) -> dict:
    (flag, value), = source.items()
    delta, phi = LADDER_DELTA_PHI
    return {
        "kind": "cli",
        "command": "classify",
        "argv": ["classify", f"--{flag}", str(value), "--delta", delta, "--phi", phi,
                 "--format", "json"],
        "source": source,
        "delta": delta,
        "phi": phi,
    }


def verify_corpus(seed: int) -> list[dict]:
    rng = _rng("verify-corpus", seed)
    moduli = [_draw_modulus(rng, shape) for shape in VERIFY_SHAPES]
    argv = ["verify", "--format", "json"]
    for m in moduli:
        argv += ["--add-zn", str(m)]
    return [{"kind": "cli", "command": "verify", "argv": argv, "add_zn": moduli}]


def hunt_corpus_moduli(seed: int) -> list[int]:
    rng = _rng("hunt-corpus", seed)
    return [_draw_modulus(rng, shape) for shape in HUNT_SHAPES]


def random_predicate(rng: random.Random) -> str:
    """One name from the parse_predicate grammar."""
    form = rng.randrange(6)
    if form == 0:
        return rng.choice(("prime", "primary", "idempotent"))
    if form == 1:
        return f"d{rng.randrange(2)}-primary"
    if form == 2:
        return f"phi{rng.choice(HUNT_EXPONENTS)}-{rng.choice(('prime', 'primary'))}"
    if form in (3, 4):
        return f"phi{rng.choice(HUNT_EXPONENTS)}-d{rng.randrange(2)}-primary"
    return f"{rng.randrange(2, 5)}-potent-d{rng.randrange(2)}-primary"


def grammar_predicates() -> list[str]:
    """Every name random_predicate can draw, in a fixed order."""
    names = ["prime", "primary", "idempotent", "d0-primary", "d1-primary"]
    for e in HUNT_EXPONENTS:
        names += [f"phi{e}-prime", f"phi{e}-primary", f"phi{e}-d0-primary", f"phi{e}-d1-primary"]
    names += [f"{k}-potent-d{d}-primary" for k in range(2, 5) for d in range(2)]
    return names


def hunt_sweep(seed: int) -> list[dict]:
    """One cold hunt per grammar predicate, then HUNTS_PER_ROUND seeded queries.

    The cold hunts (no `have`, so the lacked predicate is tested on every
    proper element) pay every kernel the queries can reach, the same on
    every seed.  The queries then only look results up.  Without this
    prefix, each seed's query order decided which queries paid a kernel,
    and the p90 sat on the edge between lookups and kernel work.
    """
    jobs = [{"kind": "hunt", "have": [], "lack": name} for name in grammar_predicates()]
    rng = _rng("hunt-sweep", seed)
    for _ in range(HUNTS_PER_ROUND):
        have = [random_predicate(rng) for _ in range(rng.randrange(1, 3))]
        lack = random_predicate(rng)
        while lack in have:
            lack = random_predicate(rng)
        jobs.append({"kind": "hunt", "have": have, "lack": lack})
    return jobs


def validate_sources(seed: int) -> list[dict]:
    """The lattices load-validate serializes, each with the mutation it gets."""
    rng = _rng("load-validate", seed)
    sources: list[dict] = [{"zn": _draw_modulus(rng, s)} for s in VALIDATE_SHAPES]
    sources.append({"boolean": VALIDATE_BOOLEAN})
    for src, kind in zip(sources, MUTATION_AXIOM):
        src["mutation"] = kind
    return sources


def load_validate(seed: int) -> list[dict]:
    """Valid files first, then one mutated copy of each.

    File paths are filled in by the worker once it has written the files;
    here ``file`` is the file's index in validate_sources order.
    """
    sources = validate_sources(seed)
    jobs = []
    for mutated in (False, True):
        for i, src in enumerate(sources):
            jobs.append(
                {
                    "kind": "cli",
                    "command": "validate",
                    "source": src,
                    "file": i,
                    "mutated": mutated,
                    "expect_axiom": MUTATION_AXIOM[src["mutation"]] if mutated else None,
                }
            )
    return jobs


JOB_LISTS = {
    "classify-ladder": classify_ladder,
    "verify-corpus": verify_corpus,
    "hunt-sweep": hunt_sweep,
    "load-validate": load_validate,
}


def jobs_for(workload: str, seed: int) -> list[dict]:
    if workload not in JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r} (want one of {', '.join(WORKLOADS)})")
    return JOB_LISTS[workload](seed)
