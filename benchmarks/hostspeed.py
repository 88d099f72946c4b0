"""A CPU clock corrected for the speed of a shared host.

On a host whose cores are shared with other tenants, the same pure-Python
work takes a varying amount of CPU time: whether a neighbour keeps the
sibling hyperthread busy moves it by up to about 1.6x.  The speed drifts in
phases of seconds to minutes and also jitters within 100 ms (measured:
probe times 2 ms apart correlate at 0.94, 100 ms apart at 0.46).
``SpeedClock`` measures that speed while the program runs and charges the
program's CPU time at a fixed reference speed.

Every ``INTERVAL_S`` of CPU time a ``SIGPROF`` handler runs a small fixed
probe (benchmark code that never calls multlat) and records how long it
took.  After the run, each stretch of the program's CPU time between two
probes is multiplied by ``PROBE_REF_S`` over the mean of those two probe
times.  The probes' own CPU time is left out.  A program change moves the
result as it moves CPU time; a host slowdown moves the probes too and
cancels out.

The clock is the thread CPU clock: while a ``SIGPROF`` timer is armed,
Linux serves the process CPU clock from a tick-granular counter.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from functools import lru_cache
from time import thread_time

INTERVAL_S = 0.01  # CPU seconds between probes
PROBE_REF_S = 0.00025  # one probe's CPU time on an uncontended core of the reference host
WARMUP_PROBES = 20  # let the interpreter specialise the probe before it counts


class _Table:
    def __init__(self, n: int):
        self.n = n
        self.prod = [[(a * b + a + b) % n for b in range(n)] for a in range(n)]
        self.order = [[(a & b) == a for b in range(n)] for a in range(n)]

    def mul(self, a: int, b: int) -> int:
        return self.prod[a][b]

    def leq(self, a: int, b: int) -> bool:
        return self.order[a][b]


class _Key:
    """A hashable value with a Python-level __hash__, like the engine's lattices."""

    def __init__(self, i: int):
        self.i = i

    def __hash__(self):
        return self.i

    def __eq__(self, other):
        return self.i == other.i


_TABLE = _Table(24)
_KEYS = [_Key(i) for i in range(8)]


@lru_cache(maxsize=None)
def _cached(key, a):
    return a


def probe() -> float:
    """CPU seconds one fixed mix of interpreter work takes.

    The mix follows what the engine does most: a pair scan through method
    calls and list-of-list lookups (the predicate kernels), cached calls
    keyed by objects with a Python-level hash (the lru_cache lookups that
    hunt and the harness make), a divisor scan (zn_ideal_lattice), and
    string formatting (serialize and rendering).  Contention on a shared
    core slows kinds of work by different factors; a mix tracks the program
    better than any one of them.
    """
    T = _TABLE
    p, q = T.n * 3 // 5, T.n // 3
    t0 = thread_time()
    hits = 0
    for a in range(T.n):
        for b in range(T.n):
            if T.leq(T.mul(a, b), p) and not (T.leq(a, p) or T.leq(b, q)):
                hits += 1
    for key in _KEYS:
        for a in range(20):
            hits += _cached(key, a)
    n = 997920
    hits += sum(1 for d in range(1, 2001) if n % d == 0)
    hits += len("".join([f"mul ({a}) * ({a + 1}) = ({a * 7 % 60})\n" for a in range(100)]))
    return thread_time() - t0


class SpeedClock:
    """start(), read cpu() as the program runs, stop(), then convert with reference()."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.marks: list[float] = []  # the program's CPU time at each probe
        self.probes: list[float] = []  # each probe's own CPU time
        self.probe_cpu = 0.0  # CPU time spent probing, left out of cpu()
        self._charged: list[float] = []  # reference time at each mark, filled by stop()

    def start(self) -> None:
        t0 = thread_time()
        for _ in range(WARMUP_PROBES):
            probe()
        self.probe_cpu = thread_time() - t0
        self._sample(None, None)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def _sample(self, signum, frame) -> None:
        t0 = thread_time()
        took = probe()
        self.marks.append(t0 - self.probe_cpu)
        self.probes.append(took)
        self.probe_cpu += thread_time() - t0

    def stop(self) -> None:
        """Stop probing (a SIGPROF still in flight is ignored) and fix the conversion."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        charged = [self.marks[0] * PROBE_REF_S / self.probes[0]]
        for k in range(1, len(self.marks)):
            charged.append(charged[-1] + (self.marks[k] - self.marks[k - 1]) * self._rate(k - 1))
        self._charged = charged

    def cpu(self) -> float:
        """The program's CPU time so far: the thread's, probes left out."""
        while True:  # a probe landing between these reads moves them: read again
            seen = len(self.probes)
            probed = self.probe_cpu
            t = thread_time()
            if len(self.probes) == seen:
                return t - probed

    def _rate(self, k: int) -> float:
        """Reference seconds per CPU second from mark k to mark k + 1."""
        if k + 1 >= len(self.probes):
            return PROBE_REF_S / self.probes[-1]
        return PROBE_REF_S / ((self.probes[k] + self.probes[k + 1]) / 2)

    def reference(self, t: float) -> float:
        """A cpu() reading, charged at the reference speed (after stop())."""
        k = bisect.bisect_right(self.marks, t) - 1
        if k < 0:
            return t * PROBE_REF_S / self.probes[0]
        return self._charged[k] + (t - self.marks[k]) * self._rate(k)

    def slowdown(self) -> float:
        """Median probe time over the reference: 1.0 on an uncontended core."""
        return statistics.median(self.probes) / PROBE_REF_S
