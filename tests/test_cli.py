"""Command-line interface: exit codes, text output, JSON output, file I/O."""

import hashlib
import json

import pytest

from multlat import (
    FiniteMultiplicativeLattice,
    chain_frame,
    classification_report,
    cli,
    hunt,
    make_delta,
    make_phi,
    run_all,
    serialize,
    zn_ideal_lattice,
)
from multlat.cli import main
from multlat.constructions import Corpus, CorpusEntry
from multlat.harness import EXPECTED_VACUOUS
from test_harness import HUNT_CORPORA, PREDICATES

Z8_BAD = """\
lattice Z8bad
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
mul (4) * (2) = (2)
mul (2) * (2) = (4)
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_ok(capsys):
    rc, out, err = run(capsys, "validate", "--zn", "24")
    assert rc == 0
    assert "Z24: ok" in out


def test_validate_usage_error(capsys):
    rc, out, err = run(capsys, "validate", "--zn", "1")
    assert rc == 2
    assert err.strip()


def test_validate_requires_exactly_one_source(capsys):
    rc, _, err = run(capsys, "validate")
    assert rc == 2
    rc, _, err = run(capsys, "validate", "--zn", "8", "--chain", "2")
    assert rc == 2


def test_validate_invalid_lattice_file(tmp_path, capsys):
    path = tmp_path / "bad.lat"
    path.write_text(Z8_BAD)
    rc, out, err = run(capsys, "validate", "--file", str(path))
    assert rc == 1
    assert "INVALID" in err


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "broken.lat"
    path.write_text(Z8_BAD.replace("mul (2) * (2) = (4)\n", ""))
    rc, out, err = run(capsys, "validate", "--file", str(path))
    assert rc == 2


def test_validate_missing_file(capsys):
    rc, _, err = run(capsys, "validate", "--file", "/nonexistent/x.lat")
    assert rc == 2


def test_validate_roundtripped_corpus_file(tmp_path, capsys):
    path = tmp_path / "z30.lat"
    path.write_text(serialize(zn_ideal_lattice(30)))
    rc, out, _ = run(capsys, "validate", "--file", str(path))
    assert rc == 0


def test_classify_table(capsys):
    rc, out, _ = run(capsys, "classify", "--zn", "24", "--delta", "d1", "--phi", "2")
    assert rc == 0
    assert "lattice Z24" in out and "delta=d1" in out and "phi=phi2" in out
    four = next(line for line in out.splitlines() if line.startswith("(4)"))
    assert four.split()[1] == "."  # prime column
    assert four.split()[7] == "Y"  # phi-d-prim column
    assert "witnesses:" in out


def test_classify_json(capsys):
    rc, out, _ = run(
        capsys, "classify", "--zn", "30", "--delta", "d1", "--phi", "2",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)
    assert (data["lattice"], data["delta"], data["phi"]) == ("Z30", "d1", "phi2")
    six = next(r for r in data["elements"] if r["element"] == "(6)")
    assert six["flags"]["phi_delta_primary"] is True
    assert six["flags"]["delta_primary"] is False
    assert six["witnesses"]["delta_primary"] == ["(2)", "(3)"]


def test_classify_phi_spellings(capsys):
    for phi in ("omega", "n:3", "0"):
        rc, out, _ = run(
            capsys, "classify", "--zn", "8", "--delta", "d0", "--phi", phi
        )
        assert rc == 0


def test_classify_map_table_from_file(tmp_path, capsys):
    z8 = zn_ideal_lattice(8)
    path = tmp_path / "delta.map"
    path.write_text("\n".join(f"{z8.label(a)} {z8.label(z8.top)}" for a in z8.elements()))
    rc, out, _ = run(
        capsys, "classify", "--zn", "8", "--delta", f"file:{path}", "--phi", "0"
    )
    assert rc == 0


def test_classify_phi_table_from_file(tmp_path, capsys):
    # every value meets its element, so a table of tops is the identity, phi1
    z8 = zn_ideal_lattice(8)
    path = tmp_path / "phi.map"
    path.write_text("".join(f"{label} (1)\n" for label in z8.labels))
    rc, out, err = run(capsys, "classify", "--zn", "8", "--phi", f"file:{path}")
    assert (rc, err) == (0, "")
    _, identity, _ = run(capsys, "classify", "--zn", "8", "--phi", "1")
    assert out.splitlines()[0] == "lattice Z8  delta=d1  phi=table"
    assert out.splitlines()[1:] == identity.splitlines()[1:]


def test_classify_rejects_a_bad_delta_spec(tmp_path, capsys):
    rc, out, err = run(capsys, "classify", "--zn", "8", "--delta", "d2")
    assert (rc, out) == (2, "")
    assert err == "error: bad delta spec 'd2' (want d0 | d1 | file:PATH)\n"
    path = tmp_path / "delta.map"
    path.write_text("(0) (0)\n(2) (0)\n(4) (4)\n(1) (1)\n")
    rc, out, err = run(capsys, "classify", "--zn", "8", "--delta", f"file:{path}")
    assert (rc, out) == (2, "")
    assert err == f"error: bad delta spec 'file:{path}': not inflationary at (2)\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("lattice again", "bad or repeated lattice line"),
        ("bottom (0) (2)", "bad bottom line"),
        ("top", "bad top line"),
        ("cover (0) (2)", "expected 'cover a < b'"),
        ("mul (2) * (2) (4)", "expected 'mul a * b = c'"),
    ],
    ids=["lattice", "bottom", "top", "cover", "mul"],
)
def test_validate_names_the_bad_line(tmp_path, capsys, line, message):
    text = serialize(zn_ideal_lattice(8))
    path = tmp_path / "bad.lat"
    path.write_text(text + line + "\n")
    rc, out, err = run(capsys, "validate", "--file", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: line {len(text.splitlines()) + 1}: {message}\n"


def test_verify_default_passes(capsys):
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    assert "T12" in out and "VACUOUS" in out


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["results"]) >= 28
    by_id = {r["id"]: r for r in data["results"]}
    assert by_id["T12"]["status"] == "VACUOUS"
    assert all(r["violations"] == 0 for r in data["results"])


def test_verify_strict_vacuity_fails(capsys):
    rc, out, _ = run(capsys, "verify", "--expect-vacuous", "none")
    assert rc == 1


def test_verify_with_extended_corpus(capsys):
    rc, out, _ = run(capsys, "verify", "--add-zn", "45")
    assert rc == 0


def test_hunt_finds_separating_elements(capsys):
    rc, out, _ = run(
        capsys, "hunt", "--have", "phi2-d1-primary", "--lack", "d1-primary"
    )
    assert rc == 0
    assert "Z30 (6) lacks d1-primary (pair (2), (3))" in out


def test_hunt_conjunction(capsys):
    rc, out, _ = run(
        capsys, "hunt",
        "--have", "2-potent-d0-primary", "--have", "phi2-d1-primary",
        "--lack", "prime",
    )
    assert rc == 0
    assert "Z8 (4)" in out


def test_hunt_empty_is_exit_one(capsys):
    rc, out, _ = run(capsys, "hunt", "--have", "prime", "--lack", "phi2-d1-primary")
    assert rc == 1


def test_hunt_bad_predicate_is_usage_error(capsys):
    rc, _, err = run(capsys, "hunt", "--have", "bogus", "--lack", "prime")
    assert rc == 2


@pytest.mark.parametrize("name", ["phi00-prime", "phi007-primary", "02-potent-d0-primary"])
def test_hunt_rejects_numerals_with_a_leading_zero(capsys, name):
    for argv in (("--have", name, "--lack", "prime"), ("--have", "prime", "--lack", name)):
        rc, out, err = run(capsys, "hunt", *argv)
        assert rc == 2
        assert err.startswith(f"error: unknown predicate {name!r}")
        assert not out


def test_hunt_rejects_a_bad_name_before_building_any_lattice(capsys, monkeypatch):
    built = []
    for builder in ("default_corpus", "zn_ideal_lattice"):
        monkeypatch.setattr(cli, builder, lambda *args, b=builder: built.append((b, args)))
    rc, out, err = run(capsys, "hunt", "--have", "phi00-prime", "--lack", "prime",
                       "--add-zn", "720720")
    assert rc == 2
    assert err.startswith("error: unknown predicate 'phi00-prime'")
    assert not out
    assert built == []


@pytest.mark.parametrize("command", ["verify", "hunt"])
def test_unknown_corpus_is_rejected_before_building_any_lattice(capsys, monkeypatch, command):
    built = []
    for builder in ("default_corpus", "zn_ideal_lattice"):
        monkeypatch.setattr(cli, builder, lambda *args, b=builder: built.append((b, args)))
    argv = [command, "--corpus", "bogus", "--add-zn", "720720"]
    if command == "hunt":
        argv += ["--have", "prime", "--lack", "primary"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: unknown corpus 'bogus'")
    assert not out
    assert built == []


def test_verify_rejects_an_unknown_vacuous_id_before_building_any_lattice(
    capsys, monkeypatch
):
    built = []
    for builder in ("default_corpus", "zn_ideal_lattice"):
        monkeypatch.setattr(cli, builder, lambda *args, b=builder: built.append((b, args)))
    rc, out, err = run(capsys, "verify", "--expect-vacuous", "T12", "T99",
                       "--add-zn", "720720")
    assert rc == 2
    assert err == "error: unknown property id 'T99'\n"
    assert not out
    assert built == []


def test_verify_expects_the_config_vacuous_ids_by_default():
    args = cli.build_parser().parse_args(["verify"])
    assert tuple(args.expect_vacuous) == EXPECTED_VACUOUS


def test_one_parser_serves_every_call_and_no_argument_leaks(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    plain = run(capsys, "verify", "--format", "json")
    added = run(capsys, "verify", "--format", "json", "--add-zn", "360")
    assert added != plain and added[0] == plain[0] == 0
    assert run(capsys, "verify", "--format", "json") == plain
    second = ("hunt", "--have", "phi2-d1-primary", "--lack", "prime", "--format", "json")
    alone = run(capsys, *second)
    first = run(capsys, "hunt", "--have", "2-potent-d0-primary", "--have", "phi2-d1-primary",
                "--lack", "prime", "--add-zn", "360", "--format", "json")
    assert first != alone and first[0] == alone[0] == 0
    assert run(capsys, *second) == alone
    assert len(builds) == 1 and cli._parser is not None


def test_export_dot(tmp_path, capsys):
    out_path = tmp_path / "z8.dot"
    rc, _, _ = run(capsys, "export-dot", "--zn", "8", "--output", str(out_path))
    assert rc == 0
    dot = out_path.read_text()
    assert dot.count("->") == 3
    assert dot.startswith('digraph "Z8"')


def test_classify_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, _, _ = run(
        capsys, "classify", "--zn", "8", "--delta", "d1", "--phi", "2",
        "--format", "json", "--output", str(out_path),
    )
    assert rc == 0
    assert json.loads(out_path.read_text())["lattice"] == "Z8"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--zn", "8"),
        ("verify",),
        ("hunt", "--have", "phi2-d1-primary", "--lack", "d1-primary"),
        ("export-dot", "--zn", "8"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    for target in (tmp_path / "no" / "such" / "dir" / "x.out", tmp_path):
        rc, out, err = run(capsys, *argv, "--output", str(target))
        assert rc == 2 and not out
        assert err.startswith(f"error: cannot write {target}: ")


def test_file_errors_keep_their_messages(tmp_path, capsys):
    # a missing lattice or map file, and an output path that cannot be
    # written: exit 2 and one stderr line each, with the system's reason
    missing = tmp_path / "missing"
    cases = [
        (("validate", "--file", str(missing)),
         f"error: [Errno 2] No such file or directory: '{missing}'"),
        (("verify", "--add-file", str(missing)),
         f"error: [Errno 2] No such file or directory: '{missing}'"),
        (("classify", "--zn", "8", "--delta", f"file:{missing}"),
         f"error: bad delta spec 'file:{missing}': "
         f"[Errno 2] No such file or directory: '{missing}'"),
        (("classify", "--zn", "8", "--output", str(missing / "x.out")),
         f"error: cannot write {missing / 'x.out'}: No such file or directory"),
        (("classify", "--zn", "8", "--output", str(tmp_path)),
         f"error: cannot write {tmp_path}: Is a directory"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", message + "\n"), argv


def test_oversized_frames_are_usage_errors(capsys):
    for flag, k in (("--chain", "1024"), ("--chain", "-1"), ("--boolean", "11")):
        rc, out, err = run(capsys, "classify", flag, k)
        assert rc == 2 and not out
        assert err.startswith("error: ")


def test_classify_empty_lattice_prints_header_only(capsys):
    for flag in ("--chain", "--boolean"):
        rc, out, err = run(capsys, "classify", flag, "0")
        assert rc == 0 and not err
        lines = out.splitlines()
        assert lines[1].startswith("element ") and set(lines[2]) == {"-"}
        assert len(lines) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--file"),
        ("export-dot", "--file"),
        ("verify", "--add-file"),
        ("hunt", "--have", "prime", "--lack", "phi2-d1-primary", "--add-file"),
    ],
    ids=lambda argv: argv[0],
)
def test_axiom_breaking_file_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.lat"
    path.write_text(Z8_BAD)
    rc, out, err = run(capsys, *argv, str(path))
    assert rc == 2
    assert err.startswith("error: Z8bad: axiom failures: ")
    assert not out


def test_huge_exponents_finish(capsys):
    # Powers stop once they stabilize, so the run time no longer grows with k.
    rc, out, _ = run(capsys, "classify", "--zn", "8", "--phi", "n:300000000")
    assert rc == 0 and "phi=phi300000000" in out
    rc, out, _ = run(
        capsys, "hunt", "--have", "300000000-potent-d0-primary", "--lack", "prime"
    )
    assert rc == 0 and "Z8 (4)" in out


def test_verify_rejects_negative_witness_cap(capsys):
    rc, out, err = run(capsys, "verify", "--witness-cap", "-3")
    assert rc == 2
    assert err.startswith("error: --witness-cap must be >= 0")
    assert not out


# SHA-256 of stdout for one verify, one classify and one hunt per predicate
# family (as the lacked predicate).  Report bytes, witnesses and counts
# included, are the engine's contract: a refactor must reproduce them exactly.
REPORT_DIGESTS = [
    pytest.param(
        ("verify", "--format", "json", "--add-zn", "360", "--add-zn", "720"),
        "dfdfa2e965336fff78d34e15fce99c268efd5929f20cd9116d9a2f41b11c6bd9",
        id="verify",
    ),
    pytest.param(
        ("verify", "--format", "json", "--add-zn", "30030"),
        "9dc8f632bebbba1f4f0ad5886f6589f5747e5fcd91ea291968862ca9e7fc1e31",
        id="verify-automorphisms",
    ),
    pytest.param(
        ("classify", "--zn", "5040", "--format", "json"),
        "f3f6bf304da0324a67d87f42ab267718c35edf66001b5b9ebbf1514697aee02a",
        id="classify",
    ),
    pytest.param(
        ("classify", "--zn", "942480", "--format", "json"),
        "cd4debe937d48d63c78f5bb23d7011a6d4a08c45dfe665e1db22df12bd6742dc",
        id="classify-zn942480",
    ),
    pytest.param(
        ("classify", "--boolean", "6", "--format", "json"),
        "086666f666ac5514d9028e1b6f8d0c90df90a24f2530632fec3df0687533eea0",
        id="classify-bool64",
    ),
    pytest.param(
        ("classify", "--chain", "9", "--delta", "d0", "--phi", "omega", "--format", "json"),
        "70aeed55b3bb35d98e9e578f13ee439aa9e283d1f6c02881a43e0ff740c43094",
        id="classify-chain9-omega",
    ),
    pytest.param(
        ("hunt", "--have", "phi2-d1-primary", "--lack", "prime", "--format", "json"),
        "085a95462d0e144dd8ae6a694145d3cd6569d9fbf264a224b3a203f14279b439",
        id="hunt-lack-prime",
    ),
    pytest.param(
        ("hunt", "--have", "phi2-d1-primary", "--lack", "primary", "--format", "json"),
        "e1938a80e3c3cc6049be462cd2f20077c5a0a165eab5b54add92c9758713a1da",
        id="hunt-lack-primary",
    ),
    pytest.param(
        ("hunt", "--have", "2-potent-d0-primary", "--lack", "idempotent", "--format", "json"),
        "85fdd7a3452200984b46f622cd7d5af19eacd7bbd3f230470758a86e7f603316",
        id="hunt-lack-idempotent",
    ),
    pytest.param(
        ("hunt", "--have", "phi2-d1-primary", "--lack", "d1-primary", "--format", "json"),
        "13e278ff34df2a8e1e710d7025090d8742a1f908468900a5e7d2b44cce278713",
        id="hunt-lack-d1-primary",
    ),
    pytest.param(
        ("hunt", "--have", "phiomega-primary", "--lack", "phi0-prime", "--format", "json"),
        "d89867985d34a5618f6b713fa96fdd74194caed9944e73fbf252977fa749330c",
        id="hunt-lack-phi0-prime",
    ),
    pytest.param(
        ("hunt", "--have", "phi2-prime", "--lack", "phi0-primary", "--format", "json"),
        "e51505f035893a64c6310222e619ecf6f9263fe7c4adb1ea7bfebbf8e7238805",
        id="hunt-lack-phi0-primary",
    ),
    pytest.param(
        ("hunt", "--have", "d1-primary", "--lack", "phi3-d0-primary", "--format", "json"),
        "b3a2a4c7439fab975b538813f39de88ef48cffc99c8abaf8d4ae513cabd99bed",
        id="hunt-lack-phi3-d0-primary",
    ),
    pytest.param(
        (
            "hunt", "--have", "phi2-d1-primary", "--lack", "3-potent-d1-primary",
            "--format", "json",
        ),
        "d5af066db4ac222b21f99e329a0c2d5f426067e8d37e0f2456ee5be906e902b4",
        id="hunt-lack-3-potent-d1-primary",
    ),
    pytest.param(
        (
            "hunt", "--have", "2-potent-d0-primary", "--have", "phi2-d1-primary",
            "--lack", "prime", "--add-zn", "5040", "--add-zn", "55440", "--format", "json",
        ),
        "9f90ab0a786c0291bddc70607f570bb1141e74b25e87abb28a4853e5a8bff4ff",
        id="hunt-at-scale-lack-prime",
    ),
    pytest.param(
        (
            "hunt", "--have", "phiomega-primary", "--lack", "phi3-d0-primary",
            "--add-zn", "5040", "--add-zn", "55440", "--format", "json",
        ),
        "67edefcc73f9e3d7415a780fb14f3f53185626467ced9a8078d0129a2c9a956d",
        id="hunt-at-scale-lack-phi3-d0-primary",
    ),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS)
def test_report_output_is_byte_identical(capsys, argv, digest):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout and the exit code of the text renderings: the classify
# table (an empty one included, and one under a delta read from a file that
# sends every element to the top), the verify table with and without allowed
# vacuity, and hunt's hit lines.  "ALL_TOP" stands for that file's path.
TEXT_DIGESTS = [
    pytest.param(
        ("classify", "--zn", "24"), 0,
        "b5a6659f24cf8cb9d309dfe1bd1c90bbe6549bcceafb1e10b9d88d6b5709a227",
        id="classify-z24",
    ),
    pytest.param(
        ("classify", "--chain", "0"), 0,
        "87c97b496b2b4ec30fea6fd696a6a8645db9dea1074719b5d48c81e348dbf285",
        id="classify-empty",
    ),
    pytest.param(
        ("classify", "--zn", "8", "--delta", "ALL_TOP", "--phi", "0"), 0,
        "d3a39cb15a0db626e0e135ef2cdf9c095ff71cbc671c9beb5ceec0e40e0f09dd",
        id="classify-delta-file",
    ),
    pytest.param(
        ("verify",), 0,
        "d6b098ef5a862051f201d491a3d01b9679eafc732b613f6d59553c526ecbb0bf",
        id="verify",
    ),
    pytest.param(
        ("verify", "--expect-vacuous", "none"), 1,
        "2e8aa899eefdd7f48bbec9ac612e5fc68bd3cc547c96dd156682c7207b336f63",
        id="verify-no-vacuity-allowed",
    ),
    pytest.param(
        ("hunt", "--have", "phi2-d1-primary", "--lack", "d1-primary"), 0,
        "17cbd35b319c58d02d74ba7b8e58462476076084d6c2909976a5a577efad3925",
        id="hunt-lack-d1-primary",
    ),
    pytest.param(
        ("hunt", "--have", "2-potent-d0-primary", "--lack", "idempotent"), 0,
        "84735801a93c5a14550746693a2dda7daac13ceabc75e10babd1603a76e082b4",
        id="hunt-lack-idempotent",
    ),
]


@pytest.mark.parametrize("argv, code, digest", TEXT_DIGESTS)
def test_text_output_is_byte_identical(tmp_path, capsys, argv, code, digest):
    z8 = zn_ideal_lattice(8)
    path = tmp_path / "all_top.map"
    path.write_text("".join(f"{label} {z8.label(z8.top)}\n" for label in z8.labels))
    rc, out, _ = run(capsys, *(f"file:{path}" if a == "ALL_TOP" else a for a in argv))
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hunt_at_scale_without_hits_prints_an_empty_list(capsys):
    rc, out, _ = run(
        capsys, "hunt", "--have", "phiomega-primary", "--lack", "phi3-d1-primary",
        "--add-zn", "5040", "--add-zn", "55440", "--format", "json",
    )
    assert rc == 1
    assert out == "[]\n"


# -- the JSON renderer against json.dumps ----------------------------------------


def _dumped(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _classified(L):
    return classification_report(L, make_delta(L, "d1"), make_phi(L, "phi2")).to_dict()


@pytest.mark.parametrize("name", HUNT_CORPORA)
def test_json_renders_the_bytes_of_json_dumps(name):
    corpus = Corpus(tuple(CorpusEntry(L, "added") for L in HUNT_CORPORA[name]()))
    docs = [_classified(L) for L in corpus.lattices()]
    docs.append(run_all(corpus).to_dict())
    docs += ([h.to_dict() for h in hunt([], lack, corpus)] for lack in PREDICATES)
    docs.append([h.to_dict() for h in hunt("prime", "primary", corpus)])  # no hit
    for doc in docs:
        assert cli._json(doc) == _dumped(doc)


def test_json_renders_empties_and_escapes_as_json_dumps_does():
    chain = chain_frame(3)
    labels = ['"0"', "back\\slash", "caf\u00e9 \u2713 \U0001d53b", "tab\tnew\nline\x7f\x00"]
    L = FiniteMultiplicativeLattice(
        'odd "name" \\ \u00e9', labels, chain.leq_table, chain.mul_table, chain.bottom, chain.top
    )
    docs = [
        _classified(L),
        [], {}, [[]], [{}], {"": {"": []}}, {"a": [], "b": {}, "c": [[], {}, [[{}]]]},
        ("tuple", ["list"]), [True, False, None, 0, -7, 2**70, 0.5, float("inf")], "\"",
    ]
    for doc in docs:
        assert cli._json(doc) == _dumped(doc), doc


def _text_or_error(render, doc):
    try:
        return render(doc)
    except TypeError as exc:
        return f"TypeError: {exc}"


def test_json_refuses_a_type_json_does_not_know():
    # a set is refused with the error json.dumps raises
    doc = {"a": [{1, 2}]}
    assert _text_or_error(cli._json, doc) == _text_or_error(_dumped, doc)
    assert _text_or_error(cli._json, doc).startswith("TypeError: Object of type set")
