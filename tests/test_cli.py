"""Command-line interface: exit codes, text output, JSON output, file I/O."""

import json

import pytest

from multlat import serialize, zn_ideal_lattice
from multlat.cli import main

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
