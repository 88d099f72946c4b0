"""Corpus builders, the lattice file format, and DOT export."""

import re
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from multlat import (
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


@pytest.mark.parametrize("n", [942480, 986364, 919836, 981360, 720720])
def test_zn_tables_equal_the_literal_tables_at_scale(n):
    L = zn_ideal_lattice(n)
    assert (L.leq_table, L.mul_table) == oracle.zn_tables(n)


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
    with pytest.raises(LatticeFormatError):
        parse_lattice(mangle(Z8_TEXT))


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
