"""Command-line front end.

Subcommands: validate, classify, verify, hunt, export-dot.  Exit codes are a
stable scripting contract: 0 success, 1 semantic failure (axiom violations,
theorem violations, empty hunt), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .classify import classification_report
from .constructions import (
    LatticeValidationError,
    boolean_frame,
    chain_frame,
    default_corpus,
    parse_lattice,
    to_dot,
    zn_ideal_lattice,
)
from .harness import EXPECTED_VACUOUS, HarnessConfig, hunt, predicate_name, registry, run_all
from .lattice import FiniteMultiplicativeLattice, validate
from .maps import MapValidationError, make_delta, make_phi, parse_map_table


class CliError(Exception):
    """Usage-level failure; reported on stderr with exit code 2."""


def _read(path: str) -> str:
    with open(path) as file:
        return file.read()


class _Source(NamedTuple):
    type: type
    metavar: str
    help: str
    build: Callable[..., FiniteMultiplicativeLattice]


# Each lattice source, by the flag --<key> that names it.
_SOURCES = {
    "zn": _Source(int, "N", "ideal lattice of Z mod N", zn_ideal_lattice),
    "chain": _Source(int, "K", "chain of K+1 elements", chain_frame),
    "boolean": _Source(int, "K", "powerset of K atoms", boolean_frame),
    "file": _Source(str, "PATH", "lattice file", lambda p: parse_lattice(_read(p))),
}
# The sources that verify and hunt add to their corpus with --add-<key>, and
# the origin each addition is recorded under.
_ADDITIONS = {"zn": "command-line addition", "file": "file {}"}


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    for flag, source in _SOURCES.items():
        sub.add_argument(f"--{flag}", type=source.type, metavar=source.metavar, help=source.help)


def _resolve_lattice(args: argparse.Namespace) -> FiniteMultiplicativeLattice:
    picked = [(flag, value) for flag in _SOURCES if (value := getattr(args, flag)) is not None]
    if len(picked) != 1:
        flags = "/".join(f"--{flag}" for flag in _SOURCES)
        raise CliError(f"exactly one of {flags} is required")
    flag, value = picked[0]
    try:
        return _SOURCES[flag].build(value)
    except LatticeValidationError:
        raise
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from exc


def _resolve_delta(L: FiniteMultiplicativeLattice, spec: str):
    try:
        if spec in ("d0", "d1"):
            return make_delta(L, spec)
        if spec.startswith("file:"):
            table = parse_map_table(_read(spec[5:]), L)
            return make_delta(L, "table", table=table)
    except (ValueError, MapValidationError, OSError) as exc:
        raise CliError(f"bad delta spec {spec!r}: {exc}") from exc
    raise CliError(f"bad delta spec {spec!r} (want d0 | d1 | file:PATH)")


def _resolve_phi(L: FiniteMultiplicativeLattice, spec: str):
    try:
        if spec == "omega":
            return make_phi(L, "phiomega")
        if spec.startswith("file:"):
            table = parse_map_table(_read(spec[5:]), L)
            return make_phi(L, "table", table=table)
        if spec.startswith("n:"):
            k = int(spec[2:])
        else:
            k = int(spec)
        return make_phi(L, f"phi{k}")
    except (ValueError, MapValidationError, OSError) as exc:
        raise CliError(
            f"bad phi spec {spec!r} (want 0 | 1 | 2 | n:<k> | omega | file:PATH): {exc}"
        ) from exc


def _json(report) -> str:
    """The bytes of ``json.dumps(report, indent=2, sort_keys=True)``.

    With an indent, CPython's json encodes in pure Python.  A report is a tree
    of dicts with str keys, lists, strs, ints, bools and None, which
    ``_render`` writes out in one recursion.
    """
    out = []
    _render(report, "\n", out.append)
    return "".join(out)


def _render(o, newline: str, emit) -> None:
    kind = type(o)
    if kind is str:
        emit(_quote(o))
    elif kind is bool:
        emit("true" if o else "false")
    elif kind is int:
        emit(int.__repr__(o))
    elif o is None:
        emit("null")
    elif kind is float:
        emit(json.dumps(o))
    elif kind is dict:
        if not o:
            emit("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(o):
            emit(f"{sep}{inner}{_quote(key)}: ")
            _render(o[key], inner, emit)
            sep = ","
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not o:
            emit("[]")
            return
        inner, sep = newline + "  ", "["
        for item in o:
            emit(sep + inner)
            _render(item, inner, emit)
            sep = ","
        emit(newline + "]")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(text: str, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as file:
                file.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _build_corpus(args: argparse.Namespace):
    if args.corpus != "default":
        raise CliError(f"unknown corpus {args.corpus!r}")
    corpus = default_corpus()
    try:
        for flag, origin in _ADDITIONS.items():
            for value in getattr(args, f"add_{flag}") or ():
                corpus = corpus.extended(_SOURCES[flag].build(value), origin.format(value))
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from exc
    return corpus


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        L = _resolve_lattice(args)
    except LatticeValidationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    report = validate(L)
    print(f"{L.name}: {'ok' if report.ok else 'INVALID'}")
    if not report.ok:
        for line in report.describe(L):
            print(f"  {line}")
        return 1
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    L = _resolve_lattice(args)
    delta = _resolve_delta(L, args.delta)
    phi = _resolve_phi(L, args.phi)
    report = classification_report(L, delta, phi)
    _emit(report.to_json() if args.format == "json" else report.text_table(), args)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.witness_cap < 0:
        raise CliError(f"--witness-cap must be >= 0, got {args.witness_cap}")
    expected = () if args.expect_vacuous == ["none"] else tuple(args.expect_vacuous)
    known = {prop.id for prop in registry()}
    for pid in expected:
        if pid not in known:
            raise CliError(f"unknown property id {pid!r}")
    corpus = _build_corpus(args)
    report = run_all(corpus, HarnessConfig(witness_cap=args.witness_cap))
    if args.format == "json":
        _emit(_json(report.to_dict()), args)
    else:
        lines = [report.text_table()]
        lines += (f"violation {w.to_dict()}" for r in report.results for w in r.witnesses)
        unexpected = report.unexpected_vacuous(expected)
        if unexpected:
            lines.append("unexpectedly vacuous: " + ", ".join(unexpected))
        _emit("\n".join(lines), args)
    return 0 if report.ok(expected) else 1


def cmd_hunt(args: argparse.Namespace) -> int:
    try:  # a misspelt name fails before any lattice is built
        for name in (*args.have, args.lack):
            predicate_name(name)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    hits = hunt(args.have, args.lack, _build_corpus(args))
    if args.format == "json":
        _emit(_json([h.to_dict() for h in hits]), args)
    elif not hits:
        _emit("no elements found", args)
    else:
        lines = [
            f"{h.lattice} {h.element} lacks {h.lacking}"
            + (f" (pair {h.pair[0]}, {h.pair[1]})" if h.pair else "")
            for h in hits
        ]
        _emit("\n".join(lines), args)
    return 0 if hits else 1


def cmd_export_dot(args: argparse.Namespace) -> int:
    L = _resolve_lattice(args)
    _emit(to_dot(L), args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multlat",
        description="Finite multiplicative lattices: validation, phi-delta-"
        "primary classification, theorem verification, counterexample hunting.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the multiplicative-lattice axioms")
    _add_source_flags(p)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("classify", help="per-element classification table")
    _add_source_flags(p)
    p.add_argument("--delta", default="d1", help="d0 | d1 | file:PATH")
    p.add_argument("--phi", default="2", help="0 | 1 | 2 | n:<k> | omega | file:PATH")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--output", metavar="PATH", help="write the report to a file")
    p.set_defaults(func=cmd_classify)

    for name, help_text in (
        ("verify", "run the theorem suite over a corpus"),
        ("hunt", "find elements separating two predicate classes"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--corpus", default="default", help="corpus name (default)")
        for flag in _ADDITIONS:
            source = _SOURCES[flag]
            p.add_argument(
                f"--add-{flag}", type=source.type, action="append",
                metavar=source.metavar, help="extend the corpus",
            )
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--output", metavar="PATH", help="write the report to a file")
        if name == "verify":
            p.add_argument("--witness-cap", type=int, default=10)
            p.add_argument(
                "--expect-vacuous",
                nargs="*",
                default=list(EXPECTED_VACUOUS),
                metavar="ID",
                help="property ids allowed to be vacuous ('none' to allow none)",
            )
            p.set_defaults(func=cmd_verify)
        else:
            p.add_argument(
                "--have",
                action="append",
                required=True,
                metavar="PRED",
                help="predicate the element must satisfy (repeatable)",
            )
            p.add_argument(
                "--lack", required=True, metavar="PRED", help="predicate it must fail"
            )
            p.set_defaults(func=cmd_hunt)

    p = subs.add_parser("export-dot", help="emit the Hasse diagram as Graphviz DOT")
    _add_source_flags(p)
    p.add_argument("--output", metavar="PATH", help="write the DOT text to a file")
    p.set_defaults(func=cmd_export_dot)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main() call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # not at import: a process that never parses pays nothing
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, LatticeValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
