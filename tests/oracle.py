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
from ``is_meet_principal`` to ``structure_profile``.  The primary scans take sqrt(p) from ``multlat.radical``
and the principal checks take (a : e) from ``multlat.residual``; both are
checked against ``radical_table`` and ``residual_table`` here.  ``hunt``
tests every element predicate by predicate; ``tests/test_harness.py`` checks
the bitmask ``multlat.hunt`` against it.
"""

from multlat import (
    HuntHit,
    Isomorphism,
    LatticeStructureError,
    StructureProfile,
    ValidationReport,
    check_global_property,
    default_corpus,
    is_phi_delta_primary,
    is_zero_divisor,
    make_delta,
    make_phi,
    omega_power,
    parse_predicate,
    radical,
    residual,
)
from multlat.lattice import _per_lattice


def bound_table(L, upper):
    """lub (upper) or glb table from the order alone; raises on the first missing bound."""
    n, leq = L.n, L.leq_table
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            if upper:
                cands = [k for k in range(n) if leq[i][k] and leq[j][k]]
                best = [k for k in cands if all(leq[k][c] for c in cands)]
            else:
                cands = [k for k in range(n) if leq[k][i] and leq[k][j]]
                best = [k for k in cands if all(leq[c][k] for c in cands)]
            if len(best) != 1:
                kind = "least upper" if upper else "greatest lower"
                raise LatticeStructureError(
                    f"no {kind} bound for ({L.label(i)}, {L.label(j)})"
                )
            row.append(best[0])
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


def hunt(have, lack, corpus=None):
    """Every proper element with each `have` predicate but not `lack`: the
    have predicates tested in order with short-circuiting, the lacked one
    only on elements that pass them all."""
    corpus = corpus if corpus is not None else default_corpus()
    names = [have] if isinstance(have, str) else list(have)
    preds = [parse_predicate(n) for n in names]
    lack_pred = parse_predicate(lack)
    hits = []
    for L in corpus.lattices():
        for q in L.proper_elements:
            if all(p.witness(L, q) is None for p in preds) and (
                pair := lack_pred.witness(L, q)
            ) is not None:
                hits.append(
                    HuntHit(L.name, L.label(q), lack_pred.name, tuple(map(L.label, pair)))
                )
    return tuple(hits)


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
