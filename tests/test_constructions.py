"""Corpus builders, the lattice file format, and DOT export."""

import re
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from multlat import (
    FiniteMultiplicativeLattice,
    LatticeFormatError,
    LatticeValidationError,
    boolean_frame,
    chain_frame,
    default_corpus,
    parse_lattice,
    serialize,
    to_dot,
    validate,
    zn_ideal_lattice,
)
from multlat.constructions import _ZN_LIMIT
from multlat.lattice import _mask
from test_derived import SHAPES
from test_harness import HUNT_CORPORA

Z8_TEXT = """\
lattice Z8x
elements (0) (4) (2) (1)
bottom (0)
top (1)
cover (0) < (4)
cover (4) < (2)
cover (2) < (1)
mul (0) * (0) = (0)
mul (0) * (4) = (0)
mul (0) * (2) = (0)
mul (4) * (4) = (0)
mul (4) * (2) = (0)
mul (2) * (2) = (4)
"""


def test_zn_carriers_frozen():
    assert zn_ideal_lattice(8).labels == ("(0)", "(2)", "(4)", "(1)")
    assert zn_ideal_lattice(24).labels == (
        "(0)", "(2)", "(3)", "(4)", "(6)", "(8)", "(12)", "(1)",
    )
    assert zn_ideal_lattice(30).labels == (
        "(0)", "(2)", "(3)", "(5)", "(6)", "(10)", "(15)", "(1)",
    )


def test_zn_rejects_bad_arguments():
    for n in (1, 0, -3, 10**6 + 1, "8", 2.0):
        with pytest.raises(ValueError):
            zn_ideal_lattice(n)


def test_zn_tables_equal_the_literal_tables_up_to_2000():
    # The rows are built from the primes' rows by (v) = (p)(v/p); every
    # entry must equal the literal gcd and divisibility tables.
    for n in range(2, 2001):
        L = zn_ideal_lattice(n)
        assert (L.leq_table, L.mul_table) == oracle.zn_tables(n), n


# The five moduli up to the limit with 240 divisors, the most any has, and
# the classify-ladder moduli of benchmark seeds 1 to 3 (942480 is every
# seed's Z720720-shaped rung).  The benchmark checks its witnesses against
# zn_ideal_lattice itself, so these are what catch a wrong build there.
ZN_AT_SCALE = [
    720720, 831600, 942480, 982800, 997920,
    986364, 919836, 981360, 969416, 918384, 934800, 914536, 939504, 920400,
]


@pytest.mark.parametrize("n", ZN_AT_SCALE)
def test_zn_tables_equal_the_literal_tables_at_scale(n):
    L = zn_ideal_lattice(n)
    assert (L.leq_table, L.mul_table) == oracle.zn_tables(n)


def test_zn_rows_fit_in_bytes_up_to_the_limit():
    # The product rows are built as bytes, one entry per divisor: no n up to
    # the limit has more than 240 divisors, and 1081080, the next highly
    # composite number, has 256.
    assert _ZN_LIMIT < 1081080
    assert max(zn_ideal_lattice(n).n for n in ZN_AT_SCALE) == 240


def _assert_carrier(L, literal):
    """L's stored masks and derived flag table are the literal order's, and
    L equals (with its hash) the public constructor's build of its tables."""
    literal = tuple(map(tuple, literal))
    assert L.leq_table == literal, L.name
    assert L.up_sets == tuple(map(_mask, literal))
    assert L.down_sets == tuple(map(_mask, zip(*literal)))
    rebuilt = FiniteMultiplicativeLattice(
        L.name, L.labels, literal, L.mul_table, L.bottom, L.top
    )
    assert rebuilt == L and hash(rebuilt) == hash(L)
    assert L.covers == oracle.covers(literal)
    lower = Counter(b for _, b in L.covers)
    assert L.join_irreducibles == tuple(b for b in range(L.n) if lower[b] == 1)


def test_chain_masks_are_the_literal_order():
    for k in range(41):
        _assert_carrier(chain_frame(k), [[i <= j for j in range(k + 1)] for i in range(k + 1)])


def test_boolean_masks_are_the_literal_order():
    for k in range(9):
        size = 1 << k
        _assert_carrier(boolean_frame(k), [[i & ~j == 0 for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("n", [4, 8, 12, 16, 24, 27, 30, 36, 360, 5040, 55440, *ZN_AT_SCALE])
def test_zn_masks_are_the_literal_order(n):
    _assert_carrier(zn_ideal_lattice(n), oracle.zn_tables(n)[0])


@pytest.mark.parametrize("L", SHAPES, ids=lambda L: L.name)
def test_shape_masks_are_the_literal_order(L):
    # N5+ (not graded), M3+ and the products, each as built from its flag rows
    _assert_carrier(L, L.leq_table)


# The literal covers at sizes the cubic oracle cannot reach, row-major
@pytest.mark.parametrize("k", [255, 511, 1023])
def test_chain_covers_are_the_literal_list(k):
    L = chain_frame(k)
    assert L.covers == tuple((i, i + 1) for i in range(k))
    assert L.join_irreducibles == tuple(range(1, k + 1))


@pytest.mark.parametrize("k", [9, 10])
def test_boolean_covers_are_the_literal_list(k):
    L = boolean_frame(k)
    assert L.covers == tuple(
        (x, x | 1 << t) for x in range(1 << k) for t in range(k) if not x >> t & 1
    )
    assert L.join_irreducibles == tuple(1 << t for t in range(k))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_covers_are_the_literal_pairs_of_any_relation(leq):
    # Peeling minimal elements assumes a partial order; on a relation that is
    # not reflexive, antisymmetric or transitive the pairs are still those
    # with nothing strictly between, and the peeling ends.
    n = len(leq)
    L = FiniteMultiplicativeLattice("r", map(str, range(n)), leq, [[0] * n] * n, 0, n - 1)
    assert L.covers == oracle.covers(leq)


@pytest.mark.parametrize("corpus", [*HUNT_CORPORA, "shapes"])
def test_parsed_masks_are_the_source_order(corpus):
    # A parsed file's order comes from the Warshall closure's masks; it must
    # be the order of the lattice that was serialized.
    for L in SHAPES if corpus == "shapes" else HUNT_CORPORA[corpus]():
        parsed = parse_lattice(serialize(L))
        _assert_carrier(parsed, L.leq_table)
        assert parsed == L and (parsed.covers, parsed.join_irreducibles) == (
            L.covers, L.join_irreducibles
        )


def test_zn_multiplication_is_ideal_product():
    L = zn_ideal_lattice(36)
    values = {a: (36 if L.label(a) == "(0)" else int(L.label(a).strip("()"))) for a in L.elements()}
    values[L.top] = 1
    for a in L.elements():
        for b in L.elements():
            assert values[L.mul(a, b)] == gcd(values[a] * values[b], 36)


def test_chain_frame():
    L = chain_frame(3)
    assert L.n == 4 and validate(L).ok
    assert L.labels == ("0", "1", "2", "3")
    for a in L.elements():
        for b in L.elements():
            assert L.mul(a, b) == min(a, b) == L.glb(a, b)
    with pytest.raises(ValueError):
        chain_frame(-1)


def test_chain_frame_size_limit():
    # 1,024 elements, the largest boolean_frame's size; one more is refused
    assert chain_frame(1023).n == 1024
    with pytest.raises(ValueError, match=r"\[0, 1023\]"):
        chain_frame(1024)


def test_boolean_frame():
    L = boolean_frame(2)
    assert L.n == 4 and validate(L).ok
    assert L.labels == ("{}", "{a}", "{b}", "{ab}")
    for a in L.elements():
        for b in L.elements():
            assert L.mul(a, b) == L.glb(a, b) == (a & b)
    assert boolean_frame(0).n == 1
    for k in (-1, 11):
        with pytest.raises(ValueError):
            boolean_frame(k)


def test_default_corpus_contents(corpus):
    assert corpus.names() == (
        "Z4", "Z8", "Z12", "Z16", "Z24", "Z27", "Z30", "Z36",
        "chain1", "chain2", "chain3", "bool4",
    )
    assert all(entry.role for entry in corpus.entries)
    assert corpus.get("Z8") == zn_ideal_lattice(8)
    assert corpus.get("nope") is None
    data = corpus.to_dict()
    assert [e["name"] for e in data["lattices"]] == list(corpus.names())
    assert all(e["role"] and e["text"] for e in data["lattices"])


def test_corpus_extension(corpus):
    bigger = corpus.extended(zn_ideal_lattice(45), "ad-hoc")
    assert len(bigger.entries) == len(corpus.entries) + 1
    assert bigger.get("Z45") is not None
    assert corpus.get("Z45") is None  # original untouched


def test_parse_round_trips_the_corpus(corpus):
    for L in corpus.lattices():
        assert parse_lattice(serialize(L)) == L


def test_parse_basic_file():
    L = parse_lattice(Z8_TEXT)
    assert L.name == "Z8x"
    assert L.labels == ("(0)", "(4)", "(2)", "(1)")
    assert L.mul(L.index_of("(2)"), L.index_of("(2)")) == L.index_of("(4)")
    assert L.mul(L.index_of("(4)"), L.index_of("(1)")) == L.index_of("(4)")  # defaulted
    assert validate(L).ok


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\n\n" + Z8_TEXT.replace(
        "mul (2) * (2) = (4)", "mul (2) * (2) = (4)  # square"
    )
    assert validate(parse_lattice(text)).ok


@pytest.mark.parametrize(
    "mangle, hint",
    [
        (lambda t: t.replace("mul (2) * (2) = (4)\n", ""), "missing"),
        (lambda t: t + "mul (2) * (2) = (0)\n", "conflict"),
        (lambda t: t + "cover (2) < (0)\n", "antisym"),
        (lambda t: t.replace("cover (0) < (4)", "cover (0) < (9)"), "unknown"),
        (lambda t: t.replace("elements (0) (4) (2) (1)", "elements (0) (4) (4) (1)"), "duplicate"),
        (lambda t: t.replace("lattice Z8x\n", ""), "header"),
        (lambda t: t.replace("bottom (0)\n", ""), "no-bottom"),
        (lambda t: t + "garbage line\n", "directive"),
        (lambda t: t + "elements (9)\n", "repeated"),
    ],
)
def test_parse_rejects_malformed_input(mangle, hint):
    with pytest.raises(LatticeFormatError) as err:
        parse_lattice(mangle(Z8_TEXT))
    assert str(err.value) == PARSE_ERRORS[hint]


PARSE_ERRORS = {
    "missing": "multiplication not total: missing (2) * (2)",
    "conflict": "conflicting products for (2) * (2)",
    "antisym": "cover closure violates antisymmetry: (0) and (4)",
    "unknown": "unknown element label '(9)'",
    "duplicate": "duplicate element labels",
    "header": "missing lattice/elements/bottom/top header",
    "no-bottom": "missing lattice/elements/bottom/top header",
    "directive": "line 14: unknown directive 'garbage'",
    "repeated": "line 14: bad or repeated elements line",
}


def test_parse_names_the_row_major_first_antisymmetry_pair():
    # Two cycles: {e, f} is written first, but {b, c, d} holds the row-major
    # first pair (b, c), which no single cover line names.
    text = (
        "lattice cycles\nelements a b c d e f\nbottom a\ntop f\n"
        "cover e < f\ncover f < e\ncover b < d\ncover d < c\ncover c < b\n"
    )
    with pytest.raises(LatticeFormatError) as err:
        parse_lattice(text)
    assert str(err.value) == "cover closure violates antisymmetry: b and c"


def test_parse_rejects_lawless_tables():
    # well-formed file, but the product table breaks monotonicity
    text = Z8_TEXT.replace("mul (4) * (2) = (0)", "mul (4) * (2) = (2)")
    with pytest.raises(LatticeValidationError) as exc:
        parse_lattice(text)
    assert not exc.value.report.ok
    assert "mul-monotone" in exc.value.report.axiom_names()


def test_parse_rejects_misplaced_bottom():
    text = Z8_TEXT.replace("bottom (0)", "bottom (4)")
    with pytest.raises(LatticeValidationError) as exc:
        parse_lattice(text)
    assert "bottom-least" in exc.value.report.axiom_names()


def test_parse_accepts_unusual_but_lawful_tables():
    # same carrier, (2) made idempotent: still passes every axiom
    text = Z8_TEXT.replace("mul (2) * (2) = (4)", "mul (2) * (2) = (2)")
    assert validate(parse_lattice(text)).ok


def test_dot_export(z8):
    dot = to_dot(z8)
    lines = [ln.strip() for ln in dot.splitlines()]
    assert lines[0] == 'digraph "Z8" {'
    assert "rankdir=BT;" in lines
    edges = [ln for ln in lines if "->" in ln]
    nodes = [ln for ln in lines if ln.endswith(";") and "->" not in ln and "rankdir" not in ln]
    assert len(nodes) == 4 and len(edges) == 3
    assert '"(0)" -> "(4)";' in lines


DOT_ID = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_export_escapes_quotes_and_backslashes():
    text = (
        Z8_TEXT.replace("lattice Z8x", 'lattice q"x')
        .replace("(4)", 'a"b')
        .replace("(2)", "c\\d")
        .replace("(1)", '\\"')
    )
    L = parse_lattice(text)
    assert validate(L).ok
    names = []
    for line in to_dot(L).splitlines():
        # every double quote belongs to a well-formed quoted ID
        assert '"' not in DOT_ID.sub("", line), line
        names.append([re.sub(r"\\(.)", r"\1", t[1:-1]) for t in DOT_ID.findall(line)])
    edges = [[L.label(a), L.label(b)] for a, b in sorted(L.covers)]
    assert names == [[L.name], [], *([lab] for lab in L.labels), *edges, []]
    assert L.name == 'q"x' and L.labels == ("(0)", 'a"b', "c\\d", '\\"')


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=150))
def test_zn_always_validates(n):
    L = zn_ideal_lattice(n)
    assert L.n == sum(1 for d in range(1, n + 1) if n % d == 0)
    assert validate(L).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=60))
def test_zn_serialization_round_trip(n):
    L = zn_ideal_lattice(n)
    assert parse_lattice(serialize(L)) == L


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=6))
def test_frames_always_validate(k, b):
    assert validate(chain_frame(k)).ok
    assert validate(boolean_frame(b)).ok
