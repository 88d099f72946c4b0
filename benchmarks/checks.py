"""Output checks that hold on every seed, plus the digest gate.

The witness checker re-derives everything it needs from the lattice's public
``leq`` and ``mul`` (and its ``bottom``/``top``/``labels``), never from the
engine's residual, radical or predicate code, so a kernel that starts
returning wrong pairs cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import json
import re

EXPECTED_VACUOUS = ("T12",)  # proved vacuous on every finite corpus (README)
PROPERTY_IDS = tuple(f"T{i:02d}" for i in range(1, 29))


class CheckFailed(Exception):
    """A job's output is wrong; the message says how."""


def digest(rc: int, out: str, err: str) -> str:
    """Pinned form of one job's result: exit code and SHA-256 of its output."""
    h = hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()
    return f"{rc}:{h}"


class Oracle:
    """Order-theoretic facts about one lattice, from leq/mul alone."""

    def __init__(self, L):
        self.L = L
        self._radical: dict[int, int] = {}

    def leq(self, a, b):
        return self.L.leq(a, b)

    def power(self, a, k):
        out = a
        for _ in range(k - 1):
            out = self.L.mul(out, a)
        return out

    def omega(self, a):
        """Stable value of a, a^2, a^3, ... (powers descend in a finite lattice)."""
        cur = a
        while True:
            nxt = self.L.mul(cur, a)
            if nxt == cur:
                return cur
            cur = nxt

    def join(self, ids):
        ids = list(ids)
        elems = range(self.L.n)
        uppers = [u for u in elems if all(self.leq(x, u) for x in ids)]
        least = [u for u in uppers if all(self.leq(u, v) for v in uppers)]
        if len(least) != 1:
            raise CheckFailed(f"{self.L.name}: no unique join of {ids}")
        return least[0]

    def radical(self, p):
        if p not in self._radical:
            below = (x for x in range(self.L.n) if self.leq(self.omega(x), p))
            self._radical[p] = self.join(below)
        return self._radical[p]

    def delta(self, kind, p):
        if kind == "d0":
            return p
        if kind == "d1":
            return self.radical(p)
        raise CheckFailed(f"unknown delta {kind!r}")

    def phi(self, exponent, p):
        """phi(p) for the exponent in a phi<exponent> name: 0, 1, k or omega."""
        if exponent == "omega":
            return self.omega(p)
        k = int(exponent)
        if k == 0:
            return self.L.bottom
        return self.power(p, k)

    def violates(self, p, a, b, *, second, target=None, excuse=None):
        """Whether (a, b) breaks: ab <= target, ab not <= excuse => a <= p or b <= second."""
        ab = self.L.mul(a, b)
        target = p if target is None else target
        if not self.leq(ab, target):
            return False
        if excuse is not None and self.leq(ab, excuse):
            return False
        return not self.leq(a, p) and not self.leq(b, second)


CLASSIFY_FLAGS = (
    "prime", "primary", "delta_primary", "weakly_delta_primary", "phi_prime",
    "phi_primary", "phi_delta_primary", "2_potent_delta_primary",
    "3_potent_delta_primary", "4_potent_delta_primary", "2_potent_d0_primary",
    "idempotent",
)


def flag_predicate(flag: str, delta: str, phi: str) -> str:
    """The parse_predicate name a ClassificationReport flag stands for."""
    phi = f"phi{phi}"
    m = re.fullmatch(r"(\d+)_potent_(delta|d0)_primary", flag)
    if m:
        return f"{m.group(1)}-potent-{delta if m.group(2) == 'delta' else 'd0'}-primary"
    names = {
        "prime": "prime",
        "primary": "primary",
        "idempotent": "idempotent",
        "delta_primary": f"{delta}-primary",
        "weakly_delta_primary": f"phi0-{delta}-primary",
        "phi_prime": f"{phi}-prime",
        "phi_primary": f"{phi}-primary",
        "phi_delta_primary": f"{phi}-{delta}-primary",
    }
    if flag not in names:
        raise CheckFailed(f"unknown flag {flag!r}")
    return names[flag]


def check_classify(L, delta: str, phi: str, rc: int, out: str, err: str) -> None:
    if rc != 0 or err:
        raise CheckFailed(f"classify exit {rc}: {err.strip()}")
    report = json.loads(out)
    o = Oracle(L)
    labels = [r["element"] for r in report["elements"]]
    if report["lattice"] != L.name or labels != [L.label(p) for p in range(L.n) if p != L.top]:
        raise CheckFailed("classify report does not list the proper elements in order")
    for rec in report["elements"]:
        p = L.index_of(rec["element"])
        flags, witnesses = rec["flags"], rec["witnesses"]
        if tuple(sorted(flags)) != tuple(sorted(CLASSIFY_FLAGS)):
            raise CheckFailed(f"{rec['element']}: unexpected flag set")
        if {k for k, v in flags.items() if not v} != set(witnesses):
            raise CheckFailed(f"{rec['element']}: witnesses do not match false flags")
        for flag, pair in witnesses.items():
            a, b = (L.index_of(x) for x in pair)
            if not predicate_violated(o, flag_predicate(flag, delta, phi), p, a, b):
                raise CheckFailed(f"{L.name} {rec['element']}: {flag} witness {pair} holds")


def check_verify(rc: int, out: str, err: str) -> None:
    if rc != 0 or err:
        raise CheckFailed(f"verify exit {rc}: {err.strip()}")
    results = json.loads(out)["results"]
    if tuple(r["id"] for r in results) != PROPERTY_IDS:
        raise CheckFailed("verify did not report T01..T28 in order")
    bad = [r["id"] for r in results if r["violations"] or r["status"] == "FAIL"]
    if bad:
        raise CheckFailed(f"verify violations in {bad}")
    vacuous = tuple(r["id"] for r in results if r["status"] == "VACUOUS")
    if vacuous != EXPECTED_VACUOUS:
        raise CheckFailed(f"VACUOUS results {vacuous}, expected {EXPECTED_VACUOUS}")


_HUNT_PHI_DELTA = re.compile(r"^phi(\d+|omega)-d([01])-primary$")
_HUNT_PHI_PRIME = re.compile(r"^phi(\d+|omega)-(prime|primary)$")
_HUNT_POTENT = re.compile(r"^(\d+)-potent-d([01])-primary$")
_HUNT_DELTA = re.compile(r"^d([01])-primary$")


def predicate_violated(o: Oracle, name: str, q: int, a: int, b: int) -> bool:
    """Whether (a, b) at q violates a parse_predicate grammar name."""
    if name == "prime":
        return o.violates(q, a, b, second=q)
    if name == "primary":
        return o.violates(q, a, b, second=o.radical(q))
    if name == "idempotent":
        return a == q and b == o.power(q, 2) != q
    m = _HUNT_DELTA.match(name)
    if m:
        return o.violates(q, a, b, second=o.delta(f"d{m.group(1)}", q))
    m = _HUNT_PHI_PRIME.match(name)
    if m:
        second = q if m.group(2) == "prime" else o.radical(q)
        return o.violates(q, a, b, second=second, excuse=o.phi(m.group(1), q))
    m = _HUNT_PHI_DELTA.match(name)
    if m:
        return o.violates(
            q, a, b, second=o.delta(f"d{m.group(2)}", q), excuse=o.phi(m.group(1), q)
        )
    m = _HUNT_POTENT.match(name)
    if m:
        k, d = int(m.group(1)), f"d{m.group(2)}"
        return o.violates(q, a, b, second=o.delta(d, q), target=o.power(q, k))
    raise CheckFailed(f"unknown predicate {name!r}")


def check_hunt(oracles: dict, lack: str, rc: int, out: str, err: str) -> None:
    """Every hit's pair must violate the lacked predicate at the hit element."""
    if rc != 0 or err:
        raise CheckFailed(f"hunt raised: {err.strip()}")
    for hit in json.loads(out):
        o = oracles.get(hit["lattice"])
        if o is None or hit["lacking"] != lack or not hit["pair"]:
            raise CheckFailed(f"malformed hit {hit}")
        q = o.L.index_of(hit["element"])
        a, b = (o.L.index_of(x) for x in hit["pair"])
        if not predicate_violated(o, lack, q, a, b):
            raise CheckFailed(f"{hit['lattice']} {hit['element']}: pair {hit['pair']} satisfies {lack}")


def check_validate(name: str, expect_axiom: str | None, rc: int, out: str, err: str) -> None:
    if expect_axiom is None:
        if (rc, out, err) != (0, f"{name}: ok\n", ""):
            raise CheckFailed(f"valid file {name}: exit {rc}, output {out!r} {err!r}")
        return
    m = re.fullmatch(r"INVALID: (\S+): axiom failures: (.+)\n", err)
    if rc != 1 or out or not m or m.group(1) != name:
        raise CheckFailed(f"mutated {name}: exit {rc}, output {out!r} {err!r}")
    axioms = m.group(2).split(", ")
    if expect_axiom not in axioms:
        raise CheckFailed(f"mutated {name}: {expect_axiom} not among {axioms}")
