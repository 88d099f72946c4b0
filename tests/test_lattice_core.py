"""Carrier structure, axiom validation, and the basic order/product API."""

from itertools import product

import pytest

from conftest import time_limit
from multlat import (
    FiniteMultiplicativeLattice,
    LatticeStructureError,
    boolean_frame,
    chain_frame,
    classification_report,
    default_corpus,
    hunt,
    make_delta,
    make_phi,
    omega_power,
    parse_lattice,
    power_stabilization,
    radical,
    residual,
    serialize,
    validate,
    zn_ideal_lattice,
)
from test_derived import SHAPES

AXIOMS = (
    "order-reflexive",
    "order-antisymmetric",
    "order-transitive",
    "bottom-least",
    "top-greatest",
    "pairwise-join-exists",
    "pairwise-meet-exists",
    "mul-commutative",
    "mul-associative",
    "mul-identity",
    "mul-annihilates-bottom",
    "mul-join-distributive",
    "mul-monotone",
)


def _patched(L, a_label, b_label, v_label, symmetric=True):
    """Copy of L with mul(a, b) redirected to v."""
    a, b, v = (L.index_of(x) for x in (a_label, b_label, v_label))
    mul = [list(row) for row in L.mul_table]
    mul[a][b] = v
    if symmetric:
        mul[b][a] = v
    return FiniteMultiplicativeLattice(
        L.name + "-patched", L.labels, L.leq_table, mul, L.bottom, L.top
    )


def test_corpus_passes_every_axiom(corpus):
    for L in corpus.lattices():
        report = validate(L)
        assert report.ok, f"{L.name}: {report.describe(L)}"
        assert report.failures == ()


def test_z24_order_facts(z24):
    leq = lambda a, b: z24.leq(z24.index_of(a), z24.index_of(b))
    assert leq("(12)", "(4)")
    assert not leq("(3)", "(4)")
    assert leq("(0)", "(3)") and leq("(3)", "(1)")
    assert z24.label(z24.bottom) == "(0)"
    assert z24.label(z24.top) == "(1)"
    assert z24.lt(z24.index_of("(12)"), z24.index_of("(4)"))
    assert not z24.lt(z24.index_of("(4)"), z24.index_of("(4)"))


def test_z24_bounds(z24):
    i = z24.index_of
    assert z24.lub(i("(4)"), i("(6)")) == i("(2)")
    assert z24.glb(i("(4)"), i("(6)")) == i("(12)")
    assert z24.join([i("(4)"), i("(6)"), i("(8)")]) == i("(2)")
    assert z24.meet([i("(4)"), i("(6)")]) == i("(12)")
    assert z24.join(()) == z24.bottom
    assert z24.meet(()) == z24.top


def test_z24_products(z24):
    i = z24.index_of
    assert z24.mul(i("(2)"), i("(6)")) == i("(12)")
    assert z24.power(i("(4)"), 2) == i("(8)")
    assert z24.power(i("(4)"), 1) == i("(4)")
    with pytest.raises(ValueError):
        z24.power(i("(4)"), 0)


def test_bound_api_is_coherent(z8):
    for a in z8.elements():
        for b in z8.elements():
            j, m = z8.lub(a, b), z8.glb(a, b)
            assert z8.leq(a, j) and z8.leq(b, j)
            assert z8.leq(m, a) and z8.leq(m, b)
            assert z8.lub(b, a) == j and z8.glb(b, a) == m


def test_z8_covers(z8):
    # chain (0) < (4) < (2) < (1), stored as (lower, upper) index pairs
    assert z8.covers == ((0, 2), (1, 3), (2, 1))
    for lo, hi in z8.covers:
        assert z8.lt(lo, hi)
        assert not any(z8.lt(lo, m) and z8.lt(m, hi) for m in z8.elements())


def test_labels_and_index_roundtrip(z30):
    assert z30.labels == ("(0)", "(2)", "(3)", "(5)", "(6)", "(10)", "(15)", "(1)")
    for a in z30.elements():
        assert z30.index_of(z30.label(a)) == a
    with pytest.raises(ValueError):
        z30.index_of("(7)")


def test_proper_elements_excludes_top(z8):
    assert z8.top not in z8.proper_elements
    assert set(z8.proper_elements) | {z8.top} == set(z8.elements())


def test_value_equality_and_hash(z8, z27):
    twin = zn_ideal_lattice(8)
    assert twin == z8 and hash(twin) == hash(z8)
    assert z8 != z27
    assert {z8: "a", twin: "b"} == {z8: "b"}


def test_structural_errors():
    ok = zn_ideal_lattice(4)
    with pytest.raises(LatticeStructureError):
        FiniteMultiplicativeLattice("x", (), (), (), 0, 0)
    with pytest.raises(LatticeStructureError):
        FiniteMultiplicativeLattice(
            "x", ("a", "a"), ((True, True), (False, True)), ((0, 0), (0, 1)), 0, 1
        )
    with pytest.raises(LatticeStructureError):
        FiniteMultiplicativeLattice(
            "x", ok.labels, ok.leq_table[:-1], ok.mul_table, 0, 2
        )
    bad_mul = [list(r) for r in ok.mul_table]
    bad_mul[0][0] = 99
    with pytest.raises(LatticeStructureError):
        FiniteMultiplicativeLattice("x", ok.labels, ok.leq_table, bad_mul, 0, 2)
    with pytest.raises(LatticeStructureError):
        FiniteMultiplicativeLattice("x", ok.labels, ok.leq_table, ok.mul_table, 0, 5)


def test_multiplication_table_must_be_square():
    ok = zn_ideal_lattice(4)
    for mul in (ok.mul_table[:-1], [row[:-1] for row in ok.mul_table]):
        with pytest.raises(LatticeStructureError) as err:
            FiniteMultiplicativeLattice("x", ok.labels, ok.leq_table, mul, 0, 2)
        assert str(err.value) == "multiplication table is not n-by-n"


@pytest.mark.parametrize(
    "entries, named",
    [
        ({(2, 1): -1, (1, 3): 7}, 7),
        ({(1, 0): -2, (3, 3): 4}, -2),
        ({(0, 3): 4, (0, 1): -1}, -1),
        ({(3, 2): 99}, 99),
        ({(2, 2): -1}, -1),
    ],
)
def test_out_of_range_products_name_the_row_major_first(entries, named):
    ok = zn_ideal_lattice(8)
    mul = [list(r) for r in ok.mul_table]
    for (a, b), v in entries.items():
        mul[a][b] = v
    with pytest.raises(LatticeStructureError) as err:
        FiniteMultiplicativeLattice("x", ok.labels, ok.leq_table, mul, 0, 3)
    assert str(err.value) == f"product index {named} out of range"


def test_lattice_is_a_dict_key_before_any_table_is_read():
    # The order is stored as masks; the flag table and every other table is
    # derived, and building or hashing a lattice derives none of them.
    fresh = zn_ideal_lattice(24)
    assert not {"_hash", "leq_table", "_lub"} & vars(fresh).keys()
    seen = {fresh: "z24"}
    assert seen[zn_ideal_lattice(24)] == "z24"
    assert hash(fresh) == hash(zn_ideal_lattice(24))
    assert not {"leq_table", "_lub", "_residual_table"} & vars(fresh).keys()
    rebuilt = FiniteMultiplicativeLattice(
        "Z24", fresh.labels, fresh.leq_table, fresh.mul_table, fresh.bottom, fresh.top
    )
    assert rebuilt == fresh and hash(rebuilt) == hash(fresh)


@pytest.mark.parametrize("build", [
    lambda: zn_ideal_lattice(720720), lambda: chain_frame(30), lambda: boolean_frame(5),
], ids=["Z720720", "chain30", "bool32"])
def test_classify_builds_no_flag_table(build):
    # Builders hand masks and the kernels read masks: the n-by-n flag table
    # stays off the classify path.
    L = build()
    classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2"))
    assert "leq_table" not in vars(L)


def test_parse_and_validate_build_no_flag_table():
    for source in (zn_ideal_lattice(360), chain_frame(5), boolean_frame(3), *SHAPES):
        L = parse_lattice(serialize(source))
        assert validate(L).ok and "leq_table" not in vars(L), source.name


def test_single_element_lattice_is_lawful():
    L = chain_frame(0)
    assert L.n == 1 and L.bottom == L.top
    assert validate(L).ok
    assert L.proper_elements == ()


def test_mul_below_meet_everywhere(corpus):
    for L in corpus.lattices():
        for a in L.elements():
            for b in L.elements():
                assert L.leq(L.mul(a, b), L.glb(a, b))


def test_power_chain_descends(corpus):
    for L in corpus.lattices():
        for a in L.elements():
            for k in range(1, 4):
                assert L.leq(L.power(a, k + 1), L.power(a, k))


def test_cyclic_powers_end_the_power_chain():
    # 0 < a, b < 1 with a*a = b and b*a = a: the powers of a cycle a, b, a, ...
    # and never reach a fixed point.  The table breaks the axioms, but the
    # power walks must still end; the alarm turns a hang into a failure.
    mul = [[0, 0, 0, 0], [0, 2, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]]
    leq = [[True] * 4, [False, True, False, True], [False, False, True, True],
           [False, False, False, True]]
    L = FiniteMultiplicativeLattice("cyclic", ["0", "a", "b", "1"], leq, mul, 0, 3)
    assert not validate(L).ok
    with time_limit(5):
        assert L.power(1, 3) in L.elements()
        assert omega_power(L, 1) in L.elements()
        assert power_stabilization(L, 1) == 2
        try:
            radical(L, 0)
        except (LookupError, ValueError):  # an unlawful table may be refused
            pass


def test_unlawful_table_names_its_broken_axioms():
    # The table above: its residual and radical sets are not principal.
    mul = [[0, 0, 0, 0], [0, 2, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]]
    leq = [[True] * 4, [False, True, False, True], [False, False, True, True],
           [False, False, False, True]]
    L = FiniteMultiplicativeLattice("cyclic", ["0", "a", "b", "1"], leq, mul, 0, 3)
    broken = "mul-join-distributive, mul-monotone"
    for table in (lambda: residual(L, 0, 1), lambda: radical(L, 0)):
        with pytest.raises(LatticeStructureError, match=broken):
            table()


def test_diagonal_patch_of_z8_is_still_a_lattice(z8):
    # Making (2) idempotent keeps every axiom intact: the order is a chain,
    # the patched table stays monotone, associative and unit-preserving.
    L = _patched(z8, "(2)", "(2)", "(2)")
    assert validate(L).ok


def test_off_diagonal_patch_of_z8_fails(z8):
    L = _patched(z8, "(2)", "(4)", "(2)")
    report = validate(L)
    assert not report.ok
    names = report.axiom_names()
    assert "mul-monotone" in names
    assert set(names) <= set(AXIOMS)


def test_asymmetric_patch_breaks_commutativity(z24):
    L = _patched(z24, "(2)", "(3)", "(0)", symmetric=False)
    report = validate(L)
    assert "mul-commutative" in report.axiom_names()
    described = report.describe(L)
    assert any("mul-commutative" in line for line in described)
    assert all(": witness (" in line for line in described)


@pytest.mark.parametrize("build", [
    lambda: zn_ideal_lattice(1680), lambda: boolean_frame(5), lambda: chain_frame(7)
], ids=["Z1680", "bool32", "chain7"])
def test_classify_parse_and_validate_build_no_order_rows(build):
    # leq_table, the order as rows of flags, is built on first read (about
    # 100 ms at bool1024); these paths read the order as masks only
    L = build()
    phis = ("phi0", "phi1", "phi2", "phi3", "phi4", "phiomega")
    for delta, phi in product(("d0", "d1"), phis):
        classification_report(L, make_delta(L, delta), make_phi(L, phi))
    assert validate(L).ok
    parsed = parse_lattice(serialize(L))
    assert validate(parsed).ok
    assert "leq_table" not in L.__dict__ and "leq_table" not in parsed.__dict__, L.name


def test_hunt_builds_no_order_rows():
    corpus = default_corpus()
    for have, lack in (
        ("phi2-d1-primary", "d1-primary"),
        ("2-potent-d0-primary", "idempotent"),
        (("phiomega-primary", "phi3-prime"), "prime"),
    ):
        hunt(have, lack, corpus)
    assert not [L.name for L in corpus.lattices() if "leq_table" in L.__dict__]
