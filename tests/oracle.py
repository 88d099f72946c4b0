"""Naive reference definitions for the fast kernels.

Each function reads the raw ``leq``/``mul`` tables and scans every candidate,
exactly as the definitions are written: the violation scans walk all ordered
pairs row-major, the residual and radical tables join every qualifying x, the
bound table filters every common bound, and ``naive_validate`` walks every
tuple of each axiom with the bounds recomputed from the order.
``tests/test_kernels.py`` and ``tests/test_validate.py`` check the kernels in
``multlat`` against them, ``tests/test_harness.py`` checks T21's chain counts
against ``proper_chains`` and the T24 and T26 hypotheses against
``t24_hypothesis`` and ``t26_hypothesis``; ``tests/test_maps.py`` checks every
isomorphism the search returns with ``is_automorphism_table``; and
``tests/test_derived.py`` checks the structure flags against the pair loops
from ``has_restricted_cancellation`` to ``structure_profile``.  The primary scans take sqrt(p) from ``multlat.radical``
and the principal checks take (a : e) from ``multlat.residual``; both are
checked against ``radical_table`` and ``residual_table`` here.  ``hunt``
tests every element predicate by predicate; ``tests/test_harness.py`` checks
the bitmask ``multlat.hunt`` against it.  ``registry`` and ``run_property``
state every theorem one instance at a time, T24 and T26 with their literal
hypotheses and T21 weighted by ``listed_chain_counts``;
``tests/test_harness.py`` checks ``multlat``'s rows of elements against them.
The statements and ``hunt`` decide every primality verdict with the
violation scans here, each kept per lattice and map tables (``_kept``); none
comes from multlat's pair kernel or its verdict store, which the rows read;
T05 and T06 read the literal residual characterizations,
``characterization_A_witness`` and ``characterization_B_witness``, which walk
every a.  ``first_pair`` is the pair kernel's scan of every row in index
order; ``tests/test_kernels.py`` checks the kernel, which reads its
generating rows first, against it on every argument tuple of small lattices.  ``zn_tables`` builds Z mod n's tables from gcd and divisibility
entry by entry, ``up_sets``/``down_sets`` sum one shifted flag at a time, and
``covers`` tests every c between every comparable pair;
``tests/test_constructions.py`` and ``tests/test_kernels.py`` check the
row-built tables and the builders' order masks against them.
"""

import re
from dataclasses import dataclass, field
from itertools import product
from math import gcd
from typing import Callable

from multlat import (
    Expansion,
    HarnessConfig,
    HuntHit,
    Isomorphism,
    LatticeStructureError,
    PhiMap,
    PropertyResult,
    StructureProfile,
    ValidationReport,
    Witness,
    check_global_property,
    default_corpus,
    enumerate_isomorphisms,
    is_idempotent,
    is_monotone,
    is_nilpotent,
    is_zero_divisor,
    make_delta,
    make_phi,
    map_leq,
    omega_power,
    power_stabilization,
    radical,
    residual,
)
from multlat import structure_profile as fast_structure_profile
from multlat.harness import predicate_name
from multlat.lattice import _per_lattice


def bound(L, i, j, upper):
    """lub (upper) or glb of (i, j) from the order alone; None where there is no unique one."""
    n, leq = L.n, L.leq_table
    if upper:
        cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
        best = [k for k in cands if all(leq[k][c] for c in cands)]
    else:
        cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
        best = [k for k in cands if all(leq[c][k] for c in cands)]
    return best[0] if len(best) == 1 else None


def bound_table(L, upper):
    """lub (upper) or glb table from the order alone; raises on the first missing bound."""
    table = []
    for i in range(L.n):
        row = []
        for j in range(L.n):
            if (k := bound(L, i, j, upper)) is None:
                kind = "least upper" if upper else "greatest lower"
                raise LatticeStructureError(
                    f"no {kind} bound for ({L.label(i)}, {L.label(j)})"
                )
            row.append(k)
        table.append(tuple(row))
    return tuple(table)


def _joiner(L):
    """Join of a finite set through the naive lub table."""
    lub = bound_table(L, upper=True)

    def join(ids):
        out = L.bottom
        for i in ids:
            out = lub[out][i]
        return out

    return join


def residual_table(L):
    """(a : b) = join of every x with xb <= a."""
    n, join = L.n, _joiner(L)
    return tuple(
        tuple(join(x for x in range(n) if L.leq(L.mul(x, b), a)) for b in range(n))
        for a in range(n)
    )


def radical_table(L):
    """sqrt(a) = join of every x with x^k <= a for some k; powers settle within n steps."""
    n, join = L.n, _joiner(L)

    def rooted(x, a):
        return any(L.leq(power(L, x, k), a) for k in range(1, n + 1))

    return tuple(join(x for x in range(n) if rooted(x, a)) for a in range(n))


def _excused(L, phi, ab, p):
    return not phi.none and L.leq(ab, phi.table[p])


def prime_violation(L, p):
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(L.mul(a, b), p) and not (L.leq(a, p) or L.leq(b, p)):
                return (a, b)
    return None


def primary_violation(L, p):
    r = radical(L, p)
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(L.mul(a, b), p) and not (L.leq(a, p) or L.leq(b, r)):
                return (a, b)
    return None


def delta_primary_violation(L, delta, p):
    dp = delta.table[p]
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(L.mul(a, b), p) and not (L.leq(a, p) or L.leq(b, dp)):
                return (a, b)
    return None


def phi_prime_violation(L, phi, p):
    for a in range(L.n):
        for b in range(L.n):
            ab = L.mul(a, b)
            if not L.leq(ab, p) or _excused(L, phi, ab, p):
                continue
            if not (L.leq(a, p) or L.leq(b, p)):
                return (a, b)
    return None


def phi_primary_violation(L, phi, p):
    r = radical(L, p)
    for a in range(L.n):
        for b in range(L.n):
            ab = L.mul(a, b)
            if not L.leq(ab, p) or _excused(L, phi, ab, p):
                continue
            if not (L.leq(a, p) or L.leq(b, r)):
                return (a, b)
    return None


def phi_delta_primary_violation(L, delta, phi, p):
    dp = delta.table[p]
    for a in range(L.n):
        for b in range(L.n):
            ab = L.mul(a, b)
            if not L.leq(ab, p) or _excused(L, phi, ab, p):
                continue
            if not (L.leq(a, p) or L.leq(b, dp)):
                return (a, b)
    return None


def order_break(L, table):
    """First (a, b), row-major, with a <= b but table[a] !<= table[b]."""
    t = table
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(a, b) and not L.leq(t[a], t[b]):
                return (a, b)
    return None


def power(L, a, k):
    out = a
    for _ in range(k - 1):
        out = L.mul(out, a)
    return out


def n_potent_violation(L, delta, p, k):
    target = power(L, p, k)
    dp = delta.table[p]
    for a in range(L.n):
        for b in range(L.n):
            if L.leq(L.mul(a, b), target) and not (L.leq(a, p) or L.leq(b, dp)):
                return (a, b)
    return None


def compact_pair_violation(L, delta, phi, q):
    dq = delta.table[q]
    for r in range(L.n):
        for s in range(L.n):
            rs = L.mul(r, s)
            if not L.leq(rs, q) or _excused(L, phi, rs, q):
                continue
            if not (L.leq(s, q) or L.leq(r, dq)):
                return (r, s)
    return None


def first_pair(L, target, excuse, row_skip, col_skip):
    """``multlat.classify._first_pair`` as the full ordered row scan: every row a
    in index order, the violating columns of row a read off the residual
    table, b the lowest of them.  Targets are proper elements."""
    down, res = L.down_sets, L._residual_table
    excused = res[excuse] if excuse is not None else None
    skipped, keep = down[row_skip], ~down[col_skip]
    for a, t in enumerate(res[target]):
        if skipped >> a & 1:
            continue
        m = down[t] & keep & (~down[excused[a]] if excused is not None else -1)
        if m:
            return a, (m & -m).bit_length() - 1
    return None


def _phi_residual(L, phi, q, a):
    """(phi(q) : a); the none kind excuses nothing, so it reads bottom."""
    return L.bottom if phi.none else residual(L, phi.table[q], a)


def characterization_A_witness(L, delta, phi, q):
    """First a with a !<= delta(q) where (q:a) is neither q nor (phi(q):a)."""
    for a in range(L.n):
        res = residual(L, q, a)
        if not L.leq(a, delta.table[q]) and res != q and res != _phi_residual(L, phi, q, a):
            return a
    return None


def characterization_B_witness(L, delta, phi, q):
    """First a with a !<= q where (q:a) !<= delta(q) and (q:a) != (phi(q):a)."""
    for a in range(L.n):
        res = residual(L, q, a)
        if not L.leq(a, q) and not L.leq(res, delta.table[q]) and (
            res != _phi_residual(L, phi, q, a)
        ):
            return a
    return None


def zn_tables(n):
    """Z mod n's order and product tables, entry by entry: the carrier is (0),
    the proper divisors ascending, then (1); (a) <= (b) iff b | a, and
    (a)(b) = (gcd(ab, n))."""
    values = [n] + [d for d in range(2, n) if n % d == 0] + [1]
    index = {v: i for i, v in enumerate(values)}
    leq = tuple(tuple(a % b == 0 for b in values) for a in values)
    mul = tuple(tuple(index[gcd(a * b, n)] for b in values) for a in values)
    return leq, mul


def up_sets(L):
    """Bit k of entry a is set iff a <= k, summed one shifted flag at a time."""
    return tuple(sum(v << k for k, v in enumerate(row)) for row in L.leq_table)


def down_sets(L):
    """Bit k of entry a is set iff k <= a, summed one shifted flag at a time."""
    return tuple(sum(v << k for k, v in enumerate(col)) for col in zip(*L.leq_table))


def covers(leq):
    """Hasse cover pairs (a, b) of an order table, row-major: a < b with no c
    strictly between."""
    n = len(leq)
    return tuple(
        (a, b) for a in range(n) for b in range(n)
        if a != b and leq[a][b]
        and not any(leq[a][c] and leq[c][b] for c in range(n) if c != a and c != b)
    )


def proper_chains(L):
    """All nonempty totally ordered subsets of the proper elements."""
    proper = L.proper_elements
    chains: list[tuple[int, ...]] = []

    def extend(chain: list[int], start: int) -> None:
        for idx in range(start, len(proper)):
            e = proper[idx]
            if all(L.leq_table[c][e] or L.leq_table[e][c] for c in chain):
                chain.append(e)
                chains.append(tuple(chain))
                extend(chain, idx + 1)
                chain.pop()

    extend([], 0)
    return tuple(chains)


def is_automorphism_table(L, table):
    """Whether a table is an order+multiplication automorphism of L."""
    if sorted(table) != list(range(L.n)):
        return False
    for a in range(L.n):
        for b in range(L.n):
            if L.leq_table[a][b] != L.leq_table[table[a]][table[b]]:
                return False
            if table[L.mul(a, b)] != L.mul(table[a], table[b]):
                return False
    return True


@_per_lattice
def _automorphism(L, table):
    """The automorphism of L with this forward table, or None if it is not one."""
    if not is_automorphism_table(L, table):
        return None
    inverse = [0] * L.n
    for a, b in enumerate(table):
        inverse[b] = a
    return Isomorphism(L, L, table, tuple(inverse))


def t24_hypothesis(L, config, inst):
    """T24's hypothesis as stated: delta is a multiplicative automorphism of L,
    phi has the global property under it, q is phi-delta-primary,
    delta(delta(q)) <= delta(q) and delta(q) is proper."""
    delta, phi, q = inst["delta"], inst["phi"], inst["q"]
    iso = _automorphism(L, delta.table)
    if iso is None or not check_global_property(iso, phi, phi):
        return False
    dq = delta.table[q]
    return (
        is_phi_delta_primary(L, delta, phi, q)
        and L.leq_table[delta.table[dq]][dq]
        and dq != L.top
    )


def t26_hypothesis(L, config, inst):
    """T26's hypothesis as stated: delta and phi have the global property
    along the isomorphism f, each map built on the source L from its kind."""
    f, delta, phi = inst["f"], inst["delta"], inst["phi"]
    return check_global_property(f, make_delta(L, delta.tag), delta) and (
        check_global_property(f, make_phi(L, phi.tag), phi)
    )


# -- kept verdicts of the naive scans -----------------------------------------
#
# The statements below decide every primality verdict with the scans above,
# never with multlat's kernel.  A scan walks n^2 pairs and the statements ask
# for one verdict many times, so each scan's first violating pair is kept on
# the lattice per (delta table, phi table or None, k, element), the arguments
# it takes; scans are never shared, so T01 and T02 compare two scans.


@_per_lattice
def _kept_pairs(L, scan):
    return {}


def _argument(a):
    """A scan argument as its key: a map's table, None for the none kind."""
    if isinstance(a, PhiMap) and a.none:
        return None
    return a.table if isinstance(a, (Expansion, PhiMap)) else a


def _kept(scan, L, *args):
    """scan(L, *args), kept on L per the tables of its map arguments."""
    key = tuple(map(_argument, args))
    pairs = _kept_pairs(L, scan)
    if key not in pairs:
        pairs[key] = scan(L, *args)
    return pairs[key]


def is_prime(L, p):
    return _kept(prime_violation, L, p) is None


def is_delta_primary(L, delta, p):
    return _kept(delta_primary_violation, L, delta, p) is None


def is_phi_prime(L, phi, p):
    return _kept(phi_prime_violation, L, phi, p) is None


def is_phi_primary(L, phi, p):
    return _kept(phi_primary_violation, L, phi, p) is None


def is_phi_delta_primary(L, delta, phi, p):
    return _kept(phi_delta_primary_violation, L, delta, phi, p) is None


def is_n_potent_delta_primary(L, delta, p, k):
    return _kept(n_potent_violation, L, delta, p, k) is None


def is_compact_pair(L, delta, phi, q):
    return _kept(compact_pair_violation, L, delta, phi, q) is None


def idempotent_violation(L, q):
    square = L.mul(q, q)
    return None if square == q else (q, square)


_NAME = re.compile(r"(?:phi(\w+)-|(\d+)-potent-)?(?:d([01])-primary|(prime|primary))")


def named_violation(L, name, q):
    """The first violating pair at q of a normalized predicate name, by the
    naive scan its parts name."""
    if name == "idempotent":
        return idempotent_violation(L, q)
    phi, k, d, alias = _NAME.fullmatch(name).groups()
    phi = phi and _phi(L, f"phi{phi}")
    if alias == "prime":
        return _kept(phi_prime_violation, L, phi, q) if phi else _kept(prime_violation, L, q)
    if alias == "primary":
        return _kept(phi_primary_violation, L, phi, q) if phi else _kept(primary_violation, L, q)
    delta = _delta(L, f"d{d}")
    if k:
        return _kept(n_potent_violation, L, delta, q, int(k))
    if phi:
        return _kept(phi_delta_primary_violation, L, delta, phi, q)
    return _kept(delta_primary_violation, L, delta, q)


def hunt(have, lack, corpus=None):
    """Every proper element with each `have` predicate but not `lack`: the
    have predicates tested in order with short-circuiting, the lacked one
    only on elements that pass them all."""
    corpus = corpus if corpus is not None else default_corpus()
    names = [have] if isinstance(have, str) else list(have)
    haves = [predicate_name(n) for n in names]
    lacking = predicate_name(lack)
    hits = []
    for L in corpus.lattices():
        for q in L.proper_elements:
            if all(named_violation(L, n, q) is None for n in haves) and (
                pair := named_violation(L, lacking, q)
            ) is not None:
                hits.append(HuntHit(L.name, L.label(q), lacking, tuple(map(L.label, pair))))
    return tuple(hits)


def has_restricted_cancellation(L, a):
    """ab = ac != 0 implies b = c, over every pair b < c."""
    for b in range(L.n):
        for c in range(b + 1, L.n):
            ab = L.mul(a, b)
            if ab == L.mul(a, c) and ab != L.bottom:
                return False
    return True


def is_meet_principal(L, e):
    """a ^ be = ((a:e) ^ b)e for all a, b."""
    for a in range(L.n):
        for b in range(L.n):
            lhs = L.glb(a, L.mul(b, e))
            rhs = L.mul(L.glb(residual(L, a, e), b), e)
            if lhs != rhs:
                return False
    return True


def is_join_principal(L, e):
    """(ae v b):e = (b:e) v a for all a, b."""
    for a in range(L.n):
        for b in range(L.n):
            lhs = residual(L, L.lub(L.mul(a, e), b), e)
            rhs = L.lub(residual(L, b, e), a)
            if lhs != rhs:
                return False
    return True


def is_principal(L, e):
    return is_meet_principal(L, e) and is_join_principal(L, e)


def is_maximal(L, a):
    """Proper, with no proper element strictly above."""
    if a == L.top:
        return False
    return all(not L.lt(a, x) or x == L.top for x in range(L.n))


def is_modular(L):
    """a <= c implies a v (b ^ c) = (a v b) ^ c."""
    for a in range(L.n):
        for c in range(L.n):
            if not L.leq(a, c):
                continue
            for b in range(L.n):
                if L.lub(a, L.glb(b, c)) != L.glb(L.lub(a, b), c):
                    return False
    return True


def is_principally_generated(L):
    """Every element is the join of the principal elements below it."""
    principal = [e for e in range(L.n) if is_principal(L, e)]
    for a in range(L.n):
        if L.join(e for e in principal if L.leq(e, a)) != a:
            return False
    return True


def maximal_primes(L):
    """The primes, found by scanning, with no prime strictly above."""
    primes = [p for p in L.proper_elements if prime_violation(L, p) is None]
    return [p for p in primes if not any(q != p and L.lt(p, q) for q in primes)]


def structure_profile(L):
    """The flags as first defined: local_noether counts the maximal primes."""
    modular = is_modular(L)
    pg = is_principally_generated(L)
    noether = modular and pg
    maxes = tuple(a for a in range(L.n) if is_maximal(L, a))
    return StructureProfile(
        modular=modular,
        principally_generated=pg,
        noether=noether,
        domain=not any(is_zero_divisor(L, a) for a in range(L.n)),
        quasi_local=len(maxes) == 1,
        local_noether=noether and len(maximal_primes(L)) == 1,
        krull=all(omega_power(L, a) == L.bottom for a in L.proper_elements),
        maximal_elements=maxes,
    )


def _first(iterable):
    for item in iterable:
        return item
    return None


def naive_validate(L):
    """Exhaustively check every lattice and multiplication axiom.

    Checks, in order: reflexivity, antisymmetry, transitivity of the order;
    bottom least and top greatest; existence of pairwise joins and meets;
    commutativity, associativity, identity (a*top = a), annihilation
    (a*bottom = bottom), distributivity over binary joins, and monotonicity.
    One lexicographically-first witness is recorded per violated axiom.
    """
    n = L.n
    leq = L.leq_table
    mul = L.mul_table
    rng = range(n)
    failures: list[tuple[str, tuple[int, ...]]] = []

    w = _first((i,) for i in rng if not leq[i][i])
    if w:
        failures.append(("order-reflexive", w))
    w = _first((i, j) for i in rng for j in rng if i != j and leq[i][j] and leq[j][i])
    if w:
        failures.append(("order-antisymmetric", w))
    w = _first(
        (i, j, k)
        for i in rng for j in rng for k in rng
        if leq[i][j] and leq[j][k] and not leq[i][k]
    )
    if w:
        failures.append(("order-transitive", w))
    w = _first((i,) for i in rng if not leq[L.bottom][i])
    if w:
        failures.append(("bottom-least", w))
    w = _first((i,) for i in rng if not leq[i][L.top])
    if w:
        failures.append(("top-greatest", w))

    # Pairwise bounds are computed from the raw order so a broken table is
    # reported rather than crashing downstream.
    def least_upper(i, j):
        cands = [k for k in rng if leq[i][k] and leq[j][k]]
        best = [k for k in cands if all(leq[k][c] for c in cands)]
        return best[0] if len(best) == 1 else None

    def greatest_lower(i, j):
        cands = [k for k in rng if leq[k][i] and leq[k][j]]
        best = [k for k in cands if all(leq[c][k] for c in cands)]
        return best[0] if len(best) == 1 else None

    w = _first((i, j) for i in rng for j in rng if least_upper(i, j) is None)
    if w:
        failures.append(("pairwise-join-exists", w))
    w = _first((i, j) for i in rng for j in rng if greatest_lower(i, j) is None)
    if w:
        failures.append(("pairwise-meet-exists", w))

    w = _first((a, b) for a in rng for b in rng if mul[a][b] != mul[b][a])
    if w:
        failures.append(("mul-commutative", w))
    w = _first(
        (a, b, c)
        for a in rng for b in rng for c in rng
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]
    )
    if w:
        failures.append(("mul-associative", w))
    w = _first((a,) for a in rng if mul[a][L.top] != a)
    if w:
        failures.append(("mul-identity", w))
    w = _first((a,) for a in rng if mul[a][L.bottom] != L.bottom)
    if w:
        failures.append(("mul-annihilates-bottom", w))

    def dist_witness():
        for a in rng:
            for b in rng:
                for c in rng:
                    j = least_upper(b, c)
                    p = least_upper(mul[a][b], mul[a][c])
                    if j is None or p is None:
                        continue  # already reported as a missing bound
                    if mul[a][j] != p:
                        return (a, b, c)
        return None

    w = dist_witness()
    if w:
        failures.append(("mul-join-distributive", w))
    w = _first(
        (a, b, c)
        for a in rng for b in rng for c in rng
        if leq[b][c] and not leq[mul[a][b]][mul[a][c]]
    )
    if w:
        failures.append(("mul-monotone", w))

    return ValidationReport(ok=not failures, failures=tuple(failures))


# -- the per-instance registry -------------------------------------------------
#
# Each property as it is stated: one instance dict per assignment of its
# whole binding, with the hypothesis and the conclusion evaluated on it.
# ``multlat.registry`` decides the same statements a row of elements at a
# time; ``tests/test_harness.py`` checks that both give the same result.


@dataclass(frozen=True)
class InstanceProperty:
    id: str
    description: str
    binding: tuple[str, ...]
    instances: Callable = field(compare=False)
    hypothesis: Callable = field(compare=False)
    conclusion: Callable = field(compare=False)
    clause: str = "conclusion"
    # (scanned, hits) that one instance stands for; None counts it as (1, 1)
    weight: Callable | None = field(default=None, compare=False)


@_per_lattice
def _delta(L, kind):
    return make_delta(L, kind)


@_per_lattice
def _phi(L, kind):
    return make_phi(L, kind)


def _deltas(L, config):
    return tuple(_delta(L, k) for k in config.delta_kinds)


def _phis(L, config):
    return tuple(_phi(L, k) for k in config.phi_kinds)


@_per_lattice
def _isomorphisms(L1, L2):
    return enumerate_isomorphisms(L1, L2)


@_per_lattice
def _chains(L):
    return proper_chains(L)


@_per_lattice
def listed_chain_counts(L, delta_kind, phi_kind):
    """Per proper p, the chains of proper elements whose largest member is p,
    and those of them that are phi-delta-primary throughout, by listing
    every chain."""
    delta, phi = _delta(L, delta_kind), _phi(L, phi_kind)
    primary = {p for p in L.proper_elements if is_phi_delta_primary(L, delta, phi, p)}
    counts = {p: (0, 0) for p in L.proper_elements}
    for chain in _chains(L):
        join = L.join(chain)
        scanned, hits = counts[join]
        counts[join] = (scanned + 1, hits + primary.issuperset(chain))
    return counts


def _every_phin_delta_primary(L, delta, p):
    # p^n for n beyond the stabilization index repeats p^s, so "for all
    # n >= 2" is decided by n in 2..max(2, s).
    return all(
        is_phi_delta_primary(L, delta, _phi(L, f"phi{n}"), p)
        for n in range(2, max(2, power_stabilization(L, p)) + 1)
    )


# What each binding name ranges over, given the lattice and the config.
_DOMAINS = {
    "delta": _deltas,
    "gamma": _deltas,
    "phi": _phis,
    "g1": _phis,
    "g2": _phis,
    "p": lambda L, config: L.proper_elements,
    "q": lambda L, config: L.proper_elements,
    "n": lambda L, config: config.potency,
    "k": lambda L, config: config.potency,
}


def from_binding(binding):
    """The instances of a binding: the product of its domains, in binding order."""

    def instances(L, corpus, config):
        domains = [_DOMAINS[name](L, config) for name in binding]
        return (dict(zip(binding, values)) for values in product(*domains))

    return instances


def _implies(a, b):
    return (not a) or b


def registry():
    """One per-instance property per theorem, corollary, and example."""
    props = []

    def add(id, description, binding, hypothesis, conclusion, clause, instances=None,
            weight=None):
        instances = instances or from_binding(binding)
        props.append(InstanceProperty(
            id, description, binding, instances, hypothesis, conclusion, clause, weight
        ))

    add(
        "T01",
        "phi-d0-primary if and only if phi-prime",
        ("phi", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d0"), i["phi"], i["p"])
        == is_phi_prime(L, i["phi"], i["p"]),
        "phi-d0-primary <=> phi-prime",
    )

    add(
        "T02",
        "phi-d1-primary if and only if phi-primary",
        ("phi", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), i["phi"], i["p"])
        == is_phi_primary(L, i["phi"], i["p"]),
        "phi-d1-primary <=> phi-primary",
    )

    add(
        "T03",
        "phi-delta-primary implies phi-gamma-primary when delta <= gamma",
        ("delta", "gamma", "phi", "p"),
        lambda L, c, i: map_leq(i["delta"], i["gamma"])
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["gamma"], i["phi"], i["p"]),
        "phi-gamma-primary",
    )

    add(
        "T04",
        "a prime element is phi-delta-primary for every expansion and phi",
        ("delta", "phi", "p"),
        lambda L, c, i: is_prime(L, i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        "phi-delta-primary",
    )

    add(
        "T05",
        "definition, first residual characterization, and the compact-pair "
        "form agree",
        ("delta", "phi", "q"),
        lambda L, c, i: True,
        lambda L, c, i: (
            is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
            == (characterization_A_witness(L, i["delta"], i["phi"], i["q"]) is None)
            == is_compact_pair(L, i["delta"], i["phi"], i["q"])
        ),
        "definition <=> characterization-A <=> compact-pair form",
    )

    add(
        "T06",
        "definition and second residual characterization agree",
        ("delta", "phi", "q"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == (characterization_B_witness(L, i["delta"], i["phi"], i["q"]) is None),
        "definition <=> characterization-B",
    )

    def t07_hypothesis(L, c, i):
        prof = fast_structure_profile(L)
        if not (prof.noether and prof.quasi_local):
            return False
        m = prof.maximal_elements[0]
        p, mm = i["p"], L.power(m, 2)
        return L.power(p, 2) == mm and L.leq_table[mm][p] and L.leq_table[p][m]

    add(
        "T07",
        "in a quasi-local Noether lattice, p^2 = m^2 <= p <= m forces p to be "
        "phi2-d1-primary",
        ("p",),
        t07_hypothesis,
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), _phi(L, "phi2"), i["p"]),
        "phi2-d1-primary",
    )

    add(
        "T08",
        "g1-delta-primary implies g2-delta-primary when g1 <= g2 pointwise",
        ("delta", "g1", "g2", "p"),
        lambda L, c, i: map_leq(i["g1"], i["g2"])
        and is_phi_delta_primary(L, i["delta"], i["g1"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["g2"], i["p"]),
        "g2-delta-primary",
    )

    def t09_conclusion(L, c, i):
        delta, n, p = i["delta"], i["n"], i["p"]
        steps = [
            is_delta_primary(L, delta, p),
            is_phi_delta_primary(L, delta, _phi(L, "phi0"), p),
            is_phi_delta_primary(L, delta, _phi(L, "phiomega"), p),
            is_phi_delta_primary(L, delta, _phi(L, f"phi{n + 1}"), p),
            is_phi_delta_primary(L, delta, _phi(L, f"phi{n}"), p),
            is_phi_delta_primary(L, delta, _phi(L, "phi2"), p),
        ]
        return all(_implies(a, b) for a, b in zip(steps, steps[1:]))

    add(
        "T09",
        "implication chain: delta-primary => phi0 => phiomega => phi(n+1) => "
        "phi(n) => phi2 (delta-primary throughout)",
        ("delta", "n", "p"),
        lambda L, c, i: True,
        t09_conclusion,
        "each arrow of the chain",
    )

    add(
        "T10",
        "phiomega-delta-primary iff phin-delta-primary for every n >= 2",
        ("delta", "p"),
        lambda L, c, i: True,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["p"])
        == _every_phin_delta_primary(L, i["delta"], i["p"]),
        "phiomega <=> all phin",
    )

    def t11_hypothesis(L, c, i):
        prof = fast_structure_profile(L)
        return prof.local_noether and prof.domain and prof.krull

    add(
        "T11",
        "in a local Noether domain with all proper power-meets zero, "
        "phin-delta-primary for every n >= 2 iff delta-primary",
        ("delta", "p"),
        t11_hypothesis,
        lambda L, c, i: _every_phin_delta_primary(L, i["delta"], i["p"])
        == is_delta_primary(L, i["delta"], i["p"]),
        "all phin <=> delta-primary",
    )

    def t12_hypothesis(L, c, i):
        q = i["q"]
        return (
            fast_structure_profile(L).noether
            and q != L.bottom
            and not is_nilpotent(L, q)
            and has_restricted_cancellation(L, q)
            and map_leq(i["phi"], _phi(L, "phi2"))
        )

    add(
        "T12",
        "in a Noether lattice, a nonzero non-nilpotent element with the "
        "restricted cancellation law is phi-delta-primary (phi <= phi2, and "
        "likewise phi <= phin for n >= 2) iff delta-primary",
        ("delta", "phi", "q"),
        t12_hypothesis,
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
    )

    add(
        "T13",
        "a 2-potent delta-primary element (the d0 form included) is "
        "phi-delta-primary for phi <= phi2 iff delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_n_potent_delta_primary(L, i["delta"], i["q"], 2)
        and map_leq(i["phi"], _phi(L, "phi2")),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
    )

    def t14_instances(L, corpus, config):
        every = from_binding(("delta", "phi", "n", "k", "q"))(L, corpus, config)
        return (i for i in every if i["k"] <= i["n"])

    add(
        "T14",
        "for k <= n, a k-potent delta-primary element is phi-delta-primary "
        "for phi <= phin iff delta-primary",
        ("delta", "phi", "n", "k", "q"),
        lambda L, c, i: map_leq(i["phi"], _phi(L, f"phi{i['n']}"))
        and is_n_potent_delta_primary(L, i["delta"], i["q"], i["k"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        == is_delta_primary(L, i["delta"], i["q"]),
        "phi-delta-primary <=> delta-primary",
        instances=t14_instances,
    )

    add(
        "T15",
        "a phi-delta-primary q with q^2 not below phi(q) is delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not L.leq_table[L.power(i["q"], 2)][i["phi"].table[i["q"]]],
        lambda L, c, i: is_delta_primary(L, i["delta"], i["q"]),
        "delta-primary",
    )

    add(
        "T16",
        "a phi-delta-primary q that is not delta-primary has q^2 <= phi(q)",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: L.leq_table[L.power(i["q"], 2)][i["phi"].table[i["q"]]],
        "q^2 <= phi(q)",
    )

    add(
        "T17",
        "a phi-delta-primary q that is not delta-primary has "
        "radical(q) = radical(phi(q))",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: radical(L, i["q"]) == radical(L, i["phi"].table[i["q"]]),
        "radical(q) = radical(phi(q))",
    )

    add(
        "T18",
        "a phi-delta-primary q with phi <= phi3 is phin-delta-primary for "
        "every n >= 2 and phiomega-delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: map_leq(i["phi"], _phi(L, "phi3"))
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["q"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["q"])
        and _every_phin_delta_primary(L, i["delta"], i["q"]),
        "phiomega and every phin",
    )

    add(
        "T19",
        "a phi0-delta-primary q that is not delta-primary has q^2 = 0",
        ("delta", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phi0"), i["q"])
        and not is_delta_primary(L, i["delta"], i["q"]),
        lambda L, c, i: L.power(i["q"], 2) == L.bottom,
        "q^2 = 0",
    )

    add(
        "T20",
        "a phi-delta-primary q whose phi(q) is delta-primary is delta-primary",
        ("delta", "phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["q"])
        and is_delta_primary(L, i["delta"], i["phi"].table[i["q"]]),
        lambda L, c, i: is_delta_primary(L, i["delta"], i["q"]),
        "delta-primary",
    )

    add(
        "T21",
        "the join of a chain of phi-delta-primary elements is "
        "phi-delta-primary when phi is monotone",
        ("delta", "phi", "p"),
        lambda L, c, i: is_monotone(i["phi"])
        and is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"]),
        "join is phi-delta-primary",
        # one instance per join p, standing for the chains whose largest member is p
        weight=lambda L, c, i: listed_chain_counts(L, i["delta"].tag, i["phi"].tag)[i["p"]],
    )

    def t22_hypothesis(L, c, i):
        phi, p, q = i["phi"], i["p"], i["q"]
        if not is_phi_delta_primary(L, i["delta"], phi, p):
            return False
        pq = residual(L, p, q)
        if pq == L.top:
            return False
        return L.leq_table[residual(L, phi.table[p], q)][phi.table[pq]]

    add(
        "T22",
        "residuals of a phi-delta-primary p stay phi-delta-primary when "
        "(phi(p):q) <= phi(p:q)",
        ("delta", "phi", "p", "q"),
        t22_hypothesis,
        lambda L, c, i: is_phi_delta_primary(
            L, i["delta"], i["phi"], residual(L, i["p"], i["q"])
        ),
        "(p:q) is phi-delta-primary",
        instances=lambda L, corpus, config: (
            {**i, "q": q}
            for i in from_binding(("delta", "phi", "p"))(L, corpus, config)
            for q in range(L.n)
        ),
    )

    def t23_conclusion(L, c, i):
        dp = i["delta"].table[i["p"]]
        rp = radical(L, i["p"])
        if not L.leq_table[rp][dp]:
            return False
        # equality corollary: delta(p) <= radical(p) then forces equality
        return not L.leq_table[dp][rp] or rp == dp

    add(
        "T23",
        "a phi-delta-primary p with radical(phi(p)) <= delta(p) has "
        "radical(p) <= delta(p), with equality when also delta(p) <= radical(p)",
        ("delta", "phi", "p"),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], i["phi"], i["p"])
        and L.leq_table[radical(L, i["phi"].table[i["p"]])][i["delta"].table[i["p"]]],
        t23_conclusion,
        "radical(p) <= delta(p)",
    )

    add(
        "T24",
        "when delta is a multiplicative automorphism, phi has the global "
        "property under it, and delta(delta(q)) <= delta(q), the image "
        "delta(q) of a phi-delta-primary q is phi-prime",
        ("delta", "phi", "q"),
        t24_hypothesis,
        lambda L, c, i: is_phi_prime(L, i["phi"], i["delta"].table[i["q"]]),
        "delta(q) is phi-prime",
    )

    add(
        "T25",
        "a phi-d1-primary q with radical(phi(q)) = phi(radical(q)) has "
        "phi-prime radical (when the radical is proper)",
        ("phi", "q"),
        lambda L, c, i: is_phi_delta_primary(L, _delta(L, "d1"), i["phi"], i["q"])
        and radical(L, i["phi"].table[i["q"]]) == i["phi"].table[radical(L, i["q"])]
        and radical(L, i["q"]) != L.top,
        lambda L, c, i: is_phi_prime(L, i["phi"], radical(L, i["q"])),
        "radical(q) is phi-prime",
    )

    def t26_instances(L, corpus, config):
        for M in corpus.lattices():
            if M.n <= 1:
                continue
            for f in _isomorphisms(L, M):
                for dk, pk in product(config.delta_kinds, config.phi_kinds):
                    for p in M.proper_elements:
                        yield {"f": f, "delta": _delta(M, dk), "phi": _phi(M, pk), "p": p}

    def t26_conclusion(L, c, i):
        f, delta, phi, p = i["f"], i["delta"], i["phi"], i["p"]
        return is_phi_delta_primary(f.target, delta, phi, p) == is_phi_delta_primary(
            L, _delta(L, delta.tag), _phi(L, phi.tag), f.pull_back(p)
        )

    add(
        "T26",
        "along an isomorphism under which delta and phi have the global "
        "property, phi-delta-primary transfers in both directions",
        ("f", "delta", "phi", "p"),
        t26_hypothesis,
        t26_conclusion,
        "status agrees across the isomorphism",
        instances=t26_instances,
    )

    add(
        "T27",
        "every proper idempotent is phiomega-delta-primary, hence "
        "phin-delta-primary for every n >= 2",
        ("delta", "q"),
        lambda L, c, i: is_idempotent(L, i["q"]),
        lambda L, c, i: is_phi_delta_primary(L, i["delta"], _phi(L, "phiomega"), i["q"])
        and _every_phin_delta_primary(L, i["delta"], i["q"]),
        "phiomega and every phin",
    )

    _T28_CASES = {
        "Z24": "(4)",
        "Z30": "(6)",
        "Z8": "(4)",
    }

    def t28_instances(L, corpus, config):
        label = _T28_CASES.get(L.name)
        if label is not None and label in L.labels:
            yield {"q": L.index_of(label)}

    def t28_conclusion(L, c, i):
        q = i["q"]
        d0, d1, phi2 = _delta(L, "d0"), _delta(L, "d1"), _phi(L, "phi2")
        if not is_phi_delta_primary(L, d1, phi2, q):
            return False
        if L.name == "Z24":
            return not is_phi_prime(L, phi2, q) and not is_prime(L, q)
        if L.name == "Z30":
            return not is_delta_primary(L, d1, q) and not is_n_potent_delta_primary(
                L, d0, q, 2
            )
        return (
            not is_idempotent(L, q)
            and is_n_potent_delta_primary(L, d0, q, 2)
            and not is_prime(L, q)
        )

    add(
        "T28",
        "the three separating examples: Z24 (4) phi2-d1-primary, not "
        "phi2-prime, not prime; Z30 (6) phi2-d1-primary, not d1-primary, not "
        "2-potent d0-primary; Z8 (4) phi2-d1-primary, 2-potent d0-primary, "
        "not idempotent, not prime",
        ("q",),
        lambda L, c, i: True,
        t28_conclusion,
        "example flags as published",
        instances=t28_instances,
    )

    return tuple(props)


def _render_binding(L, inst, key, value):
    if isinstance(value, (Expansion, PhiMap)):
        return value.tag
    if isinstance(value, Isomorphism):
        return value.describe()
    if key in ("n", "k"):
        return str(value)
    if "f" in inst and key == "p":  # element of the isomorphism's target
        return inst["f"].target.label(value)
    return L.label(value)


def _witness(prop, L, inst):
    delta = inst.get("delta")
    phi = inst.get("phi")
    bindings = {
        key: _render_binding(L, inst, key, value)
        for key, value in inst.items()
        if key in prop.binding
    }
    return Witness(
        prop.id,
        L.name,
        delta.tag if isinstance(delta, Expansion) else "-",
        phi.tag if isinstance(phi, PhiMap) else "-",
        bindings,
        prop.clause,
    )


def run_property(prop, corpus=None, config=None):
    """One instance at a time: the hypothesis, then the conclusion where it holds."""
    corpus = corpus if corpus is not None else default_corpus()
    config = config if config is not None else HarnessConfig()
    scanned = hits = violations = 0
    witnesses = []
    for L in corpus.lattices():
        if L.n <= 1:  # no proper elements; nothing to quantify over
            continue
        for inst in prop.instances(L, corpus, config):
            n, n_hits = prop.weight(L, config, inst) if prop.weight else (1, 1)
            scanned += n
            if not prop.hypothesis(L, config, inst):
                continue
            hits += n_hits
            if prop.conclusion(L, config, inst):
                continue
            violations += n_hits
            if len(witnesses) < config.witness_cap:
                witnesses.append(_witness(prop, L, inst))
    return PropertyResult(
        prop.id, prop.description, scanned, hits, violations, tuple(witnesses)
    )
