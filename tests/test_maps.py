"""Expansions, phi maps, the pointwise order, and isomorphism machinery."""

import hashlib
import itertools

import pytest

import oracle
from conftest import time_limit
from multlat import (
    FiniteMultiplicativeLattice,
    MapValidationError,
    boolean_frame,
    chain_frame,
    check_global_property,
    enumerate_isomorphisms,
    global_property_witness,
    is_monotone,
    make_delta,
    make_phi,
    map_leq,
    parse_map_table,
    radical,
    validate,
    zn_ideal_lattice,
)
from multlat import maps
from multlat.maps import Expansion, PhiMap, UnaryMap
from test_derived import SHAPES

DELTA_KINDS = ("d0", "d1")
PHI_KINDS = ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega")


def test_make_delta_builtin_kinds(z24):
    d0 = make_delta(z24, "d0")
    assert d0.table == tuple(range(z24.n))
    d1 = make_delta(z24, "d1")
    assert d1.table == tuple(radical(z24, a) for a in range(z24.n))
    assert d1.apply(z24.index_of("(4)")) == z24.index_of("(2)")
    assert (d0.tag, d1.tag) == ("d0", "d1")


def test_delta_laws(corpus):
    for L in corpus.lattices():
        for kind in DELTA_KINDS:
            d = make_delta(L, kind)
            assert is_monotone(d)
            for a in L.elements():
                assert L.leq(a, d.apply(a))
                assert L.leq(d.apply(a), d.apply(d.apply(a)))
        d1 = make_delta(L, "d1")
        assert all(d1.apply(d1.apply(a)) == d1.apply(a) for a in L.elements())


def test_delta_table_kind_matches_builtin(z8):
    d1 = make_delta(z8, "d1")
    via_table = make_delta(z8, "table", table=d1.table, tag="again")
    assert via_table.table == d1.table
    assert via_table.tag == "again"


def test_delta_rejects_deflation(z8):
    table = list(range(z8.n))
    two = z8.index_of("(2)")
    table[two] = z8.index_of("(0)")
    with pytest.raises(MapValidationError) as exc:
        make_delta(z8, "table", table=table)
    assert exc.value.witness[0] == two


def test_delta_rejects_non_monotone(z8):
    i = z8.index_of
    table = list(range(z8.n))
    table[i("(0)")] = i("(2)")  # inflationary, but (0) <= (4) now maps up-down
    with pytest.raises(MapValidationError) as exc:
        make_delta(z8, "table", table=table)
    assert exc.value.witness == (i("(0)"), i("(4)"))


def _inflationary_d0_edits(L):
    """The d0 table with one entry a moved to a value strictly above a."""
    for a in L.elements():
        for v in L.elements():
            if L.lt(a, v):
                table = list(L.elements())
                table[a] = v
                yield tuple(table)


@pytest.mark.parametrize(
    "L",
    [chain_frame(3), boolean_frame(2), zn_ideal_lattice(12), zn_ideal_lattice(24)],
    ids=lambda L: L.name,
)
def test_order_checks_match_oracle_on_inflationary_edits(L):
    outcomes = set()
    for table in _inflationary_d0_edits(L):
        want = oracle.order_break(L, table)
        outcomes.add(want is None)
        assert UnaryMap(L, table, "edit").monotone is (want is None)
        if want is None:
            assert make_delta(L, "table", table=table).table == table
            continue
        with pytest.raises(MapValidationError) as exc:
            make_delta(L, "table", table=table)
        assert exc.value.witness == want
    assert outcomes == {True, False}


def test_maps_compare_by_class_and_fields(z8):
    table = tuple(range(z8.n))
    assert UnaryMap(z8, table, "edit") == UnaryMap(z8, table, "edit")
    assert hash(UnaryMap(z8, table, "edit")) == hash(UnaryMap(z8, table, "edit"))
    assert Expansion(z8, table, "t", "table") == make_delta(z8, "table", table=table, tag="t")
    assert Expansion(z8, table, "t", "table") != Expansion(z8, table, "t", "d0")
    assert Expansion(z8, table, "t", "table") != Expansion(z8, table, "u", "table")
    # the same fields in another class make another map
    assert Expansion(z8, table, "t", "table") != PhiMap(z8, table, "t", "table")
    assert UnaryMap(z8, table, "t") != Expansion(z8, table, "t", "table")


def test_make_delta_unknown_kind(z8):
    with pytest.raises(ValueError):
        make_delta(z8, "d2")


def test_make_phi_builtin_kinds(z24):
    i = z24.index_of
    assert make_phi(z24, "phi0").table == (z24.bottom,) * z24.n
    assert make_phi(z24, "phi1").table == tuple(range(z24.n))
    assert make_phi(z24, "phi2").apply(i("(4)")) == i("(8)")
    assert make_phi(z24, "phi3").apply(i("(2)")) == i("(8)")
    assert make_phi(z24, "phi5").kind == "phin"
    assert make_phi(z24, "phi5").tag == "phi5"
    omega = make_phi(z24, "phiomega")
    assert omega.apply(i("(2)")) == i("(8)")
    with pytest.raises(ValueError):
        make_phi(z24, "phix")
    # phin is the kind label of phi<k> for k > 2, not a spelling of a map
    with pytest.raises(ValueError, match="unknown phi kind 'phin'"):
        make_phi(z24, "phin")


def test_phi_power_spelling_rule(z24):
    # phi<digits> is phi(a) = a^k, leading zeros allowed, tagged phi<k>
    for spelling, k, kind in (
        ("phi00", 0, "phi0"), ("phi01", 1, "phi1"), ("phi02", 2, "phi2"),
        ("phi03", 3, "phin"), ("phi003", 3, "phin"),
    ):
        phi = make_phi(z24, spelling)
        assert (phi.tag, phi.kind) == (f"phi{k}", kind)
        assert phi == make_phi(z24, f"phi{k}")


def test_phi_maps_sit_below_identity(corpus):
    for L in corpus.lattices():
        for kind in PHI_KINDS:
            phi = make_phi(L, kind)
            assert all(L.leq(phi.apply(p), p) for p in L.elements())


def test_phi_table_kind_is_normalized(z8):
    # a table entry above the element is trimmed back to it
    table = [z8.top] * z8.n
    phi = make_phi(z8, "table", table=table)
    assert phi.table == tuple(range(z8.n))


def test_phi_family_chain(corpus):
    for L in corpus.lattices():
        phis = {kind: make_phi(L, kind) for kind in PHI_KINDS}
        chain = ("phi0", "phiomega", "phi4", "phi3", "phi2", "phi1")
        for lower, upper in zip(chain, chain[1:]):
            assert map_leq(phis[lower], phis[upper]), (L.name, lower, upper)


def test_phi_chain_is_strict_somewhere(z24):
    assert map_leq(make_phi(z24, "phi2"), make_phi(z24, "phi1"))
    assert not map_leq(make_phi(z24, "phi1"), make_phi(z24, "phi2"))


def test_phi_below_delta_always(corpus):
    for L in corpus.lattices():
        for pk in PHI_KINDS:
            for dk in DELTA_KINDS:
                assert map_leq(make_phi(L, pk), make_delta(L, dk))


def test_none_phi_sits_strictly_below_everything(z8):
    none = make_phi(z8, "none")
    phi0 = make_phi(z8, "phi0")
    assert none.none and not phi0.none
    assert none.table == phi0.table  # same values, different excuse semantics
    assert map_leq(none, phi0)
    assert not map_leq(phi0, none)
    assert map_leq(none, make_phi(z8, "none"))


def test_none_kind_is_keyed_none_on_its_lattice_and_on_a_twin(z8):
    twin = zn_ideal_lattice(8)
    assert twin == z8 and twin is not z8
    identity = tuple(range(z8.n))
    for none in (make_phi(z8, "none"), PhiMap(z8, identity, "edit", "none")):
        assert none.key is None
        assert maps.key_on(twin, none) is None
    # a bare map has no kind, so it is keyed by its table like any other
    bare = UnaryMap(z8, identity, "edit")
    assert bare.kind is None
    assert bare.key == maps.IDENTITY == maps.key_on(twin, bare)


def test_map_leq_is_the_pointwise_order(corpus):
    for L in corpus.lattices():
        maps = [make_delta(L, k) for k in DELTA_KINDS] + [make_phi(L, k) for k in PHI_KINDS]
        for g1, g2 in itertools.product(maps, repeat=2):
            expected = all(L.leq(g1.table[a], g2.table[a]) for a in range(L.n))
            assert map_leq(g1, g2) == expected, (L.name, g1.tag, g2.tag)


def test_map_leq_requires_shared_lattice(z8, z24):
    with pytest.raises(ValueError):
        map_leq(make_phi(z8, "phi0"), make_phi(z24, "phi0"))


def _brute_isomorphisms(L1, L2):
    found = []
    for perm in itertools.permutations(range(L2.n)):
        if all(
            L1.leq_table[a][b] == L2.leq_table[perm[a]][perm[b]]
            for a in range(L1.n)
            for b in range(L1.n)
        ) and all(
            perm[L1.mul(a, b)] == L2.mul(perm[a], perm[b])
            for a in range(L1.n)
            for b in range(L1.n)
        ):
            found.append(perm)
    return found


def _lattice(name, up, products):
    """A lattice from each element's up-set, bottom first and top last, with
    the given products below the top; every other product is the bottom."""
    labels = list(up)

    def mul(x, y):
        if labels[-1] in (x, y):
            return y if x == labels[-1] else x
        return products.get(x + y) or products.get(y + x) or labels[0]

    return FiniteMultiplicativeLattice(
        name, labels, [[y in up[x] for y in labels] for x in labels],
        [[labels.index(mul(x, y)) for y in labels] for x in labels], 0, len(labels) - 1,
    )


# Two lattices on one order, whose join-irreducibles keep their signatures: a
# search that skipped cross products (a*b) or squares (j*j) would find too much.
# a*b differs between the tails, so they are not isomorphic; the spires are,
# by swapping p and q.
TAILS = {"0": "0zabmT", "z": "zabmT", "a": "amT", "b": "bmT", "m": "mT", "T": "T"}
SPIRE = {"0": "0pqrjT", "p": "prjT", "q": "qrjT", "r": "rjT", "j": "jT", "T": "T"}
TWINS = [
    ([_lattice(f"tails-ab={v}", TAILS, {"aa": "z", "bb": "z", "am": "z", "bm": "z",
                                         "mm": "z", "ab": v}) for v in "0z"], 0),
    ([_lattice(f"spire-jj={v}", SPIRE, {"jj": v}) for v in "pq"], 1),
]


@pytest.mark.parametrize("twins, across", TWINS, ids=("tails", "spire"))
def test_products_of_join_irreducibles_are_checked(twins, across):
    for L1 in twins:
        assert validate(L1).ok, validate(L1).describe(L1)
        for L2 in twins:
            tables = [f.forward for f in enumerate_isomorphisms(L1, L2)]
            assert tables == _brute_isomorphisms(L1, L2)
    assert len(enumerate_isomorphisms(*twins)) == across


# Two lattices on four atoms a, b, c, d, x*y = 0 below the top T: in the
# first e = a v b, in the second e = a v b v c, so c <= e there only.  Both
# have 9 elements and the join-irreducibles a, b, c, d, T, and sending each
# join-irreducible to its namesake gives a bijection preserving their
# products, but not an isomorphism: the second has one more comparable pair.
ONE_MORE_PAIR = [
    _lattice(name, {"0": "0abcdeftT", "a": "aetT", "b": "betT", "c": c, "d": "dftT",
                    "e": "etT", "f": "ftT", "t": "tT", "T": "T"}, {})
    for name, c in (("ab", "cftT"), ("abc", "ceftT"))
]


def test_comparable_pair_counts_make_the_bijection_an_isomorphism(monkeypatch):
    for L in ONE_MORE_PAIR:
        assert validate(L).ok, validate(L).describe(L)
        assert len(L.join_irreducibles) == 5
    ab, abc = ONE_MORE_PAIR
    assert enumerate_isomorphisms(ab, abc) == ()
    # The signatures only prune: |up(c)| alone already tells c in ab from c
    # in abc.  Without it every candidate fits, and only the count of
    # comparable pairs rejects the bijection.
    monkeypatch.setattr(maps, "_signature", lambda L, i: L.down_sets[i].bit_count())
    assert enumerate_isomorphisms(ab, abc) == ()
    assert [f.forward for f in enumerate_isomorphisms(ab, ab)] == _brute_isomorphisms(ab, ab)


def test_unique_isomorphism_z8_to_z27(z8, z27):
    isos = enumerate_isomorphisms(z8, z27)
    assert len(isos) == 1
    f = isos[0]
    assert f.apply(z8.index_of("(2)")) == z27.index_of("(3)")
    assert f.apply(z8.index_of("(4)")) == z27.index_of("(9)")
    assert [f.forward for f in isos] == _brute_isomorphisms(z8, z27)
    for a in z8.elements():
        assert f.pull_back(f.apply(a)) == a
    assert "(2)->(3)" in f.describe()


def test_no_isomorphism_when_shapes_differ(z8, z24, z30):
    assert enumerate_isomorphisms(z8, z30) == ()
    assert enumerate_isomorphisms(z8, z24) == ()


def test_self_isomorphisms_contain_identity(z8, z24, z30):
    for L in (z8, z24, z30):
        tables = [f.forward for f in enumerate_isomorphisms(L, L)]
        assert tuple(range(L.n)) in tables
        assert tables == _brute_isomorphisms(L, L)


def _isomorphism_digest(pairs):
    h = hashlib.sha256()
    for L1, L2 in pairs:
        tables = [f.forward for f in enumerate_isomorphisms(L1, L2)]
        h.update(repr((L1.name, L2.name, tables)).encode())
    return h.hexdigest()


# SHA-256 of the sorted forward tables, taken with the search that joined
# every join-irreducible image below each element afresh.
SHAPE_ISOMORPHISMS = "7a29351d4debf3a9cf6c114d9d9d16ad472cfdb4f586d1e5fd70b6f2f4dfc971"
Z510510_AUTOMORPHISMS = "6dcd2dc5a4df1a3a5a7dcf34164c6202d5581250018fc6f11925bf81c55f99bc"


def test_isomorphisms_of_shapes_and_z510510_are_pinned():
    # The shapes include M3 and N5 with a top adjoined, where a join of two
    # join-irreducible images can already reach the image of a third.
    assert _isomorphism_digest(itertools.product(SHAPES, SHAPES)) == SHAPE_ISOMORPHISMS
    z = zn_ideal_lattice(510510)
    isos = enumerate_isomorphisms(z, z)
    assert len(isos) == 5040
    digest = hashlib.sha256(repr([f.forward for f in isos]).encode()).hexdigest()
    assert digest == Z510510_AUTOMORPHISMS


@pytest.mark.parametrize("L", [*SHAPES, chain_frame(0)], ids=lambda L: L.name)
def test_self_isomorphisms_of_shapes_match_the_oracles(L):
    isos = enumerate_isomorphisms(L, L)
    tables = [f.forward for f in isos]
    assert tuple(range(L.n)) in tables
    for f in isos:
        assert oracle.is_automorphism_table(L, f.forward), f.describe()
        assert all(f.pull_back(f.apply(a)) == a for a in L.elements())
    if L.n <= 9:
        assert tables == _brute_isomorphisms(L, L)


@pytest.mark.parametrize(
    "L, order",
    [
        (zn_ideal_lattice(30), 6),
        (zn_ideal_lattice(30030), 720),
        (zn_ideal_lattice(720720), 24),
        (boolean_frame(5), 120),
        *((chain_frame(k), 1) for k in range(6)),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_automorphism_group_orders(L, order):
    isos = enumerate_isomorphisms(L, L)
    assert len(isos) == order
    assert [f.forward for f in isos] == sorted(f.forward for f in isos)
    if L.n <= 32:
        assert all(oracle.is_automorphism_table(L, f.forward) for f in isos)


def test_automorphisms_of_z510510_are_fast():
    # seven atoms permuted freely: 7! automorphisms of a 128-element lattice
    with time_limit(5):
        L = zn_ideal_lattice(510510)
        assert len(enumerate_isomorphisms(L, L)) == 5040


def test_the_longest_chain_has_only_the_identity():
    # 1,023 join-irreducibles, one search level each: deeper than the
    # recursion limit, so the search must not recurse per level
    L = chain_frame(1023)
    assert [f.forward for f in enumerate_isomorphisms(L, L)] == [tuple(range(L.n))]


def test_is_automorphism_table(z24):
    assert oracle.is_automorphism_table(z24, tuple(range(z24.n)))
    swapped = list(range(z24.n))
    a, b = z24.index_of("(4)"), z24.index_of("(6)")
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert not oracle.is_automorphism_table(z24, tuple(swapped))


def test_an_inflationary_automorphism_is_the_identity():
    # T24's hypothesis rests on this: if delta(a) != a, the orbit
    # a < delta(a) <= delta^2(a) <= ... would have to come back to a.
    lattices = [
        *map(chain_frame, range(6)),
        *map(boolean_frame, range(4)),
        *map(zn_ideal_lattice, (8, 12, 24)),
    ]
    for L in lattices:
        ups = [[b for b in range(L.n) if L.leq_table[a][b]] for a in range(L.n)]
        automorphisms = [
            t for t in itertools.product(*ups) if oracle.is_automorphism_table(L, t)
        ]
        assert automorphisms == [tuple(range(L.n))], L.name


def test_global_property_transfer(z8, z27):
    f = enumerate_isomorphisms(z8, z27)[0]
    d1_src, d1_tgt = make_delta(z8, "d1"), make_delta(z27, "d1")
    assert check_global_property(f, d1_src, d1_tgt)
    assert check_global_property(f, make_delta(z8, "d0"), make_delta(z27, "d0"))

    d0_tgt = make_delta(z27, "d0")
    w = global_property_witness(f, d1_src, d0_tgt)
    assert w is not None
    # replay: at the witness the transported map disagrees with the source map
    assert f.pull_back(d0_tgt.apply(w)) != d1_src.apply(f.pull_back(w))


def test_global_property_of_phi_maps_under_unique_iso(z8, z27):
    f = enumerate_isomorphisms(z8, z27)[0]
    for kind in PHI_KINDS:
        assert check_global_property(f, make_phi(z8, kind), make_phi(z27, kind))


def test_parse_map_table(z8):
    text = """
    # radical on the four-element chain
    (0) (2)
    (2) (2)
    (4) (2)
    (1) (1)
    """
    table = parse_map_table(text, z8)
    assert table == make_delta(z8, "d1").table
    with pytest.raises(ValueError):
        parse_map_table("(0) (2)\n(2) (2)\n(4) (2)", z8)  # (1) missing
    with pytest.raises(ValueError):
        parse_map_table(text + "\n(0) (0)", z8)  # duplicate
    with pytest.raises(ValueError):
        parse_map_table("(0) (2) (4)", z8)  # arity
    with pytest.raises(ValueError):
        parse_map_table("(0) (7)", z8)  # unknown label


@pytest.mark.parametrize(
    "text, message",
    [
        ("(0)\n", "line 1: expected '<from> <to>', got '(0)'"),
        ("(0) (0)\n(0) (2)\n", "line 2: duplicate entry for (0)"),
        ("# only the bottom\n(0) (0)  # fixed\n", "map table missing entries for: (2), (4), (1)"),
    ],
    ids=["arity", "duplicate", "missing"],
)
def test_parse_map_table_messages(z8, text, message):
    with pytest.raises(ValueError) as err:
        parse_map_table(text, z8)
    assert str(err.value) == message


@pytest.mark.parametrize("table", [(0, 1, 2, 4), (0, 1, 2), (0, -1, 2, 3)])
def test_tables_must_index_the_carrier(z8, table):
    for build in (make_delta, make_phi):
        with pytest.raises(MapValidationError) as err:
            build(z8, "table", table=table)
        assert str(err.value) == "map table does not index the carrier"
        assert err.value.witness == ()


def test_global_property_witness_checks_where_the_maps_live(z8, z27):
    f = enumerate_isomorphisms(z8, z27)[0]
    with pytest.raises(ValueError, match="source and target"):
        global_property_witness(f, make_delta(z27, "d1"), make_delta(z27, "d1"))
    with pytest.raises(ValueError, match="source and target"):
        global_property_witness(f, make_delta(z8, "d1"), make_delta(z8, "d1"))
    # the radical of Z27's bottom (0) is (3), but the identity on Z8 fixes (0)
    assert global_property_witness(f, make_delta(z8, "d0"), make_delta(z27, "d1")) == (
        z27.index_of("(0)")
    )


def test_is_monotone_is_computed_once_per_map(z24):
    # Both answers occur: identity below the top, bottom at the top, is not monotone.
    table = [z24.bottom if a == z24.top else a for a in z24.elements()]
    maps = [make_phi(z24, k) for k in PHI_KINDS] + [make_phi(z24, "table", table=table)]
    for g in maps:
        want = all(
            z24.leq(g.table[a], g.table[b])
            for a in z24.elements()
            for b in z24.elements()
            if z24.leq(a, b)
        )
        assert "monotone" not in vars(g)
        assert is_monotone(g) is want and vars(g)["monotone"] is want
        assert is_monotone(g) is want
    assert {is_monotone(g) for g in maps} == {True, False}
