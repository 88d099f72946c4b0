"""Workload set-up and the traced form of every job.

The traced run calls each layer's public entry point in dependency order
(tables before the kernels that read them, kernels before the report or
harness that looks them up) and wraps each call in a span, so self times
land on the layer that did the work.  Each traced job renders its output
exactly as the untraced CLI or library call does, and goes through the same
checks and digest gate.

Only names from ``multlat.__all__`` and ``multlat.cli.main`` are used; the
engine's caches are filled through public calls such as ``L.lub`` and
``residual``.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from multlat import (
    Corpus,
    CorpusEntry,
    HarnessConfig,
    HarnessReport,
    LatticeFormatError,
    LatticeValidationError,
    boolean_frame,
    characterization_A_witness,
    characterization_B_witness,
    classification_report,
    compact_pair_violation,
    default_corpus,
    delta_primary_violation,
    enumerate_isomorphisms,
    hunt,
    is_monotone,
    make_delta,
    make_phi,
    n_potent_violation,
    parse_lattice,
    parse_predicate,
    phi_delta_primary_violation,
    phi_primary_violation,
    phi_prime_violation,
    prime_violation,
    primary_violation,
    radical,
    registry,
    residual,
    run_property,
    serialize,
    structure_profile,
    validate,
    zn_ideal_lattice,
)
from multlat.cli import main as cli_main

from checks import EXPECTED_VACUOUS
from workloads import hunt_corpus_moduli, validate_sources

VERIFY_CONFIG = HarnessConfig()  # what `multlat verify` uses by default
ADDED_ROLE = "command-line addition"  # the role cmd_verify gives --add-zn lattices


class NullTracer:
    """Stands in for Tracer in untraced rounds: no spans, no counts."""

    def span(self, name):
        return nullcontext()

    def count(self, name, k=1):
        pass


def build_lattice(source: dict):
    if "zn" in source:
        return zn_ideal_lattice(source["zn"])
    return boolean_frame(source["boolean"])


def cli_phi(L, spec: str):
    """The phi map `multlat classify --phi spec` builds."""
    return make_phi(L, "phiomega" if spec == "omega" else f"phi{spec}")


# -- set-up ------------------------------------------------------------------


def mutate(L, text: str, kind: str) -> str:
    """Change one entry of L's serialized multiplication table.

    Each kind is built to break one named axiom: annihilate sets 0*x = x,
    identity sets x*top = 0, monotone sets a*b = top for proper nonzero a, b
    (then ab = top is not below a*top = a although b <= top).  The entry sits
    at a fixed index, so validate's early exits cost the same on every seed;
    the seed moves which element holds that index.
    """
    lab = L.label
    inner = [x for x in range(L.n) if x not in (L.bottom, L.top)]
    a, b = inner[len(inner) // 2], inner[len(inner) // 3]

    def line(x, y, z):
        x, y = min(x, y), max(x, y)
        return f"mul {lab(x)} * {lab(y)} = {lab(z)}\n"

    if kind == "identity":
        return text + line(a, L.top, L.bottom)
    if kind == "annihilate":
        old, new = line(L.bottom, a, L.mul(L.bottom, a)), line(L.bottom, a, a)
    elif kind == "monotone":
        old, new = line(a, b, L.mul(a, b)), line(a, b, L.top)
    else:
        raise ValueError(f"unknown mutation kind {kind!r}")
    if text.count(old) != 1:
        raise ValueError(f"{L.name}: cannot locate {old.strip()!r}")
    return text.replace(old, new)


def setup(workload: str, seed: int, jobs: list[dict], workdir: Path, tr) -> dict:
    """Build what the jobs share; returns the context the job runners take."""
    ctx: dict = {}
    if workload == "hunt-sweep":
        with tr.span("constructions.corpus_s"):
            corpus = default_corpus()
            for m in hunt_corpus_moduli(seed):
                with tr.span("lattice.build_s"):
                    L = zn_ideal_lattice(m)
                corpus = corpus.extended(L, "hunt-sweep")
        ctx["corpus"] = corpus
    elif workload == "load-validate":
        files = []
        for i, src in enumerate(validate_sources(seed)):
            with tr.span("lattice.build_s"):
                L = build_lattice(src)
            with tr.span("lattice.covers_s"):
                L.covers
            with tr.span("constructions.serialize_s"):
                text = serialize(L)
            pair = []
            for suffix, body in (("", text), ("-mut", mutate(L, text, src["mutation"]))):
                path = workdir / f"{i}{suffix}.lat"
                path.write_text(body)
                pair.append(str(path))
            files.append((L.name, pair))
        for job in jobs:
            name, pair = files[job["file"]]
            job["name"] = name
            job["path"] = pair[job["mutated"]]
            job["argv"] = ["validate", "--file", job["path"]]
    return ctx


# -- traced jobs ---------------------------------------------------------------


def _pairs_scanned(witness, n: int) -> int:
    """Pairs a row-major (a, b) search visited before stopping."""
    if witness is None:
        return n * n
    a, b = witness
    return a * n + b + 1


class KernelForcer:
    """Runs predicate kernels under per-family spans, counting scanned pairs once per call."""

    def __init__(self, tr, counting=True):
        self.tr = tr
        self.counting = counting
        self.seen: set = set()

    def call(self, key, fn, n):
        w = fn()
        if self.counting and key not in self.seen:
            self.seen.add(key)
            self.tr.count("classify.pairs_scanned", _pairs_scanned(w, n))
        return w

    def family(self, span, L, kernel, *args):
        """kernel(L, *args, p) for every proper p of L."""
        tags = tuple(getattr(a, "tag", a) for a in args)
        with self.tr.span(span):
            for p in L.proper_elements:
                self.call((kernel.__name__, L.name, tags, p),
                          lambda: kernel(L, *args, p), L.n)

    def potent(self, L, delta, k):
        """n_potent_violation(L, delta, p, k) for every proper p of L."""
        with self.tr.span("classify.n_potent_s"):
            for p in L.proper_elements:
                self.call(("n_potent", L.name, delta.tag, p, k),
                          lambda: n_potent_violation(L, delta, p, k), L.n)

    def report_kernels(self, L, delta, phi, potency=(2, 3, 4)):
        """Every kernel classification_report(L, delta, phi) calls."""
        phi0 = make_phi(L, "phi0")
        self.family("classify.prime_s", L, prime_violation)
        self.family("classify.primary_s", L, primary_violation)
        self.family("classify.delta_primary_s", L, delta_primary_violation, delta)
        self.family("classify.phi_delta_primary_s", L, phi_delta_primary_violation, delta, phi0)
        self.family("classify.phi_prime_s", L, phi_prime_violation, phi)
        self.family("classify.phi_primary_s", L, phi_primary_violation, phi)
        self.family("classify.phi_delta_primary_s", L, phi_delta_primary_violation, delta, phi)
        for k in potency:
            self.potent(L, delta, k)
        self.potent(L, make_delta(L, "d0"), 2)


def traced_classify(tr, forcer, job):
    with tr.span("lattice.build_s"):
        L = build_lattice(job["source"])
    with tr.span("lattice.lub_table_s"):
        L.lub(L.bottom, L.top)
    with tr.span("derived.radical_table_s"):
        radical(L, L.bottom)
    with tr.span("maps.make_delta_s"):
        delta = make_delta(L, job["delta"])
    with tr.span("maps.make_phi_s"):
        phi = cli_phi(L, job["phi"])
    forcer.report_kernels(L, delta, phi)
    with tr.span("classify.report_s"):
        report = classification_report(L, delta, phi)
    with tr.span("cli.render_s"):
        out = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return 0, out, ""


def _verify_tables(tr, forcer, L, corpus, config):
    with tr.span("lattice.lub_table_s"):
        L.lub(L.bottom, L.top)
    with tr.span("lattice.glb_table_s"):
        L.glb(L.bottom, L.top)
    with tr.span("derived.residual_table_s"):
        residual(L, L.bottom, L.top)
    with tr.span("derived.radical_table_s"):
        radical(L, L.bottom)
    forcer.family("classify.prime_s", L, prime_violation)  # structure_profile reads it
    with tr.span("derived.structure_profile_s"):
        structure_profile(L)
    with tr.span("maps.make_delta_s"):
        deltas = [make_delta(L, k) for k in config.delta_kinds]
    with tr.span("maps.make_phi_s"):
        phis = [make_phi(L, k) for k in config.phi_kinds]
    forcer.family("classify.primary_s", L, primary_violation)
    for phi in phis:
        forcer.family("classify.phi_prime_s", L, phi_prime_violation, phi)
        forcer.family("classify.phi_primary_s", L, phi_primary_violation, phi)
    for delta in deltas:
        forcer.family("classify.delta_primary_s", L, delta_primary_violation, delta)
        for k in config.potency:
            forcer.potent(L, delta, k)
        for phi in phis:
            forcer.family("classify.phi_delta_primary_s", L, phi_delta_primary_violation, delta, phi)
            with tr.span("classify.characterization_s"):
                for q in L.proper_elements:
                    characterization_A_witness(L, delta, phi, q)
                    characterization_B_witness(L, delta, phi, q)
                    compact_pair_violation(L, delta, phi, q)
    with tr.span("maps.is_monotone_call_s"):
        for g in deltas + phis:
            is_monotone(g)
    with tr.span("maps.isomorphisms_s"):
        for M in corpus.lattices():
            if M.n > 1:
                enumerate_isomorphisms(L, M)


def traced_verify(tr, forcer, job):
    with tr.span("constructions.corpus_s"):
        corpus = default_corpus()
        for m in job["add_zn"]:
            with tr.span("lattice.build_s"):
                L = zn_ideal_lattice(m)
            corpus = corpus.extended(L, ADDED_ROLE)
    for L in corpus.lattices():
        if L.n > 1:
            _verify_tables(tr, forcer, L, corpus, VERIFY_CONFIG)
    results = []
    for prop in sorted(registry(), key=lambda p: p.id):
        with tr.span(f"harness.property_s.{prop.id}"):
            r = run_property(prop, corpus, VERIFY_CONFIG)
        tr.count("harness.instances_scanned", r.instances_scanned)
        tr.count("harness.hypothesis_hits", r.hypothesis_hits)
        results.append(r)
    with tr.span("cli.render_s"):
        report = HarnessReport(tuple(results))
        out = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return (0 if report.ok(EXPECTED_VACUOUS) else 1), out, ""


def predicate_span(name: str) -> str | None:
    """The classify kernel family a parse_predicate name resolves to."""
    if name in ("prime", "primary"):
        return f"classify.{name}_s"
    if name == "idempotent":
        return None  # no kernel: one multiplication
    if name.startswith("d"):  # d<D>-primary
        return "classify.delta_primary_s"
    if "-potent-" in name:
        return "classify.n_potent_s"
    if name.endswith("-prime"):  # phi<P>-prime
        return "classify.phi_prime_s"
    if name.count("-") == 1:  # phi<P>-primary
        return "classify.phi_primary_s"
    return "classify.phi_delta_primary_s"  # phi<P>-d<D>-primary


def render_hunt(hits) -> str:
    """What `multlat hunt --format json` prints for these hits."""
    return json.dumps([h.to_dict() for h in hits], indent=2, sort_keys=True) + "\n"


def traced_hunt(tr, forcer, job, corpus):
    """Force exactly the kernel calls hunt() makes, then time hunt() itself.

    hunt() tests the have predicates in order with short-circuiting and the
    lacked one only on elements that pass them all; replaying that per
    predicate reaches the same set of (predicate, lattice, element) calls.
    """
    lattices = corpus.lattices()
    alive = {L.name: L.proper_elements for L in lattices}
    names = job["have"] + [job["lack"]]
    for i, name in enumerate(names):
        pred = parse_predicate(name)
        span = predicate_span(pred.name)
        with tr.span(span) if span else nullcontext():
            for L in lattices:
                keep = []
                for q in alive[L.name]:
                    if span:
                        w = forcer.call((pred.name, L.name, q), lambda: pred.witness(L, q), L.n)
                    else:
                        w = pred.witness(L, q)
                    if w is None:
                        keep.append(q)
                if i < len(names) - 1:
                    alive[L.name] = keep
    with tr.span("harness.hunt_s"):
        hits = hunt(job["have"], job["lack"], corpus)
    with tr.span("cli.render_s"):
        out = render_hunt(hits)
    return 0, out, ""


def traced_validate(tr, job):
    """cmd_validate, layer by layer: parse (which validates), then validate again."""
    with tr.span("constructions.parse_s"):
        text = Path(job["path"]).read_text()
        try:
            L = parse_lattice(text)
        except LatticeValidationError as exc:
            return 1, "", f"INVALID: {exc}\n"
        except LatticeFormatError as exc:
            return 2, "", f"error: {exc}\n"
    with tr.span("lattice.glb_table_s"):
        L.glb(L.bottom, L.top)
    with tr.span("lattice.validate_s"):
        report = validate(L)
    with tr.span("cli.render_s"):
        lines = [f"{L.name}: {'ok' if report.ok else 'INVALID'}"]
        lines += [f"  {line}" for line in report.describe(L)]
        out = "\n".join(lines) + "\n"
    return (0 if report.ok else 1), out, ""


CENSUS_MODULUS = 60  # 12 elements; no workload draws this shape, so every call is cold


def census(tr):
    """One cold call into every layer on Z60, after a traced round's job list.

    Every per-layer time is then measured on every workload: where a workload
    never reaches a layer, its figure is this call alone (milliseconds).  It
    runs outside the timed job list and adds nothing to the counts.
    """
    tr.job = "census"
    with tr.span("lattice.build_s"):
        L = zn_ideal_lattice(CENSUS_MODULUS)
    with tr.span("lattice.covers_s"):
        L.covers
    with tr.span("constructions.serialize_s"):
        text = serialize(L)
    with tr.span("constructions.parse_s"):
        parse_lattice(text)
    with tr.span("lattice.lub_table_s"):
        L.lub(L.bottom, L.top)
    with tr.span("lattice.glb_table_s"):
        L.glb(L.bottom, L.top)
    with tr.span("lattice.validate_s"):
        validate(L)
    with tr.span("derived.residual_table_s"):
        residual(L, L.bottom, L.top)
    with tr.span("derived.radical_table_s"):
        radical(L, L.bottom)
    with tr.span("maps.make_delta_s"):
        delta = make_delta(L, "d1")
    with tr.span("maps.make_phi_s"):
        phi = make_phi(L, "phi2")
    with tr.span("maps.is_monotone_call_s"):
        is_monotone(phi)
    with tr.span("maps.isomorphisms_s"):
        enumerate_isomorphisms(L, L)
    KernelForcer(tr, counting=False).report_kernels(L, delta, phi)
    with tr.span("derived.structure_profile_s"):
        structure_profile(L)
    with tr.span("classify.characterization_s"):
        for q in L.proper_elements:
            characterization_A_witness(L, delta, phi, q)
            characterization_B_witness(L, delta, phi, q)
            compact_pair_violation(L, delta, phi, q)
    with tr.span("classify.report_s"):
        report = classification_report(L, delta, phi)
    with tr.span("cli.render_s"):
        json.dumps(report.to_dict(), indent=2, sort_keys=True)
    with tr.span("constructions.corpus_s"):
        corpus = Corpus((CorpusEntry(L, "census"),))
    for prop in sorted(registry(), key=lambda p: p.id):
        with tr.span(f"harness.property_s.{prop.id}"):
            run_property(prop, corpus, VERIFY_CONFIG)
    with tr.span("harness.hunt_s"):
        hunt("prime", "primary", corpus)


def run_traced(tr, forcer, workload, job, ctx):
    if workload == "classify-ladder":
        return traced_classify(tr, forcer, job)
    if workload == "verify-corpus":
        return traced_verify(tr, forcer, job)
    if workload == "hunt-sweep":
        return traced_hunt(tr, forcer, job, ctx["corpus"])
    return traced_validate(tr, job)


@contextmanager
def captured():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        yield out, err


def run_untraced(job, ctx):
    """The job as a user runs it: the CLI, or hunt() for hunt-sweep."""
    if job["kind"] == "hunt":
        return 0, render_hunt(hunt(job["have"], job["lack"], ctx["corpus"])), ""
    with captured() as (out, err):
        try:
            rc = cli_main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()

