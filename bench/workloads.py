"""Workload plans, job execution and the correctness gate.

A job is one call into a public entry point of the package:
``formulas.verify.verify_layer`` (workloads ``tower`` and ``witness``), one
``axioms.check_axiom_*`` call or one ``cli.main(["vogt", ...])`` call
(workload ``models``).  A workload's plan is a fixed cycle of job specs; the
run repeats whole cycles, so every run sees the same job mix and only the
per-job seeds (drawn from the run seed) change the inputs.

The package is imported from ``src/`` of the checkout the benchmark sits in,
never from site-packages, and it can be imported afresh so that set-up time
includes a cold import.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("tower", "witness", "models")

# deep layers; tower keeps only the exact-backend instances
TOWER_RELATIONS = ("GAMMA", "B", "DELTA:5", "DELTA:6", "DELTA:7", "DELTA:8", "NEQ", "COLLINEAR", "ALPHA:3", "BETA:3")
# witness-building layers, each on the space verification_space picks
WITNESS_RELATIONS = ("EQUIV2", "PSI:2:1", "PSI:3:2", "PSI:5:3", "PSI:9:4", "LE", "DELTA:2", "DELTA:3", "DELTA:4")
NORMS = ("l1", "l2", "linf")
AXIOM_FUNCTIONS = {
    "a": "check_axiom_a",
    "cde": "check_axiom_c_d_e",
    "f": "check_axiom_f",
    "h": "check_axiom_h",
    "b": "check_axiom_b",
    "g": "check_axiom_g",
    "i": "check_axiom_i",
}
MODEL_PLANES = (("l1", "exact"), ("l2", "exact"), ("linf", "exact"), ("l2", "float"))
FLOAT_TOLERANCE = 1e-9

# Per-job sizes.  The deep tower layers (GAMMA, B, DELTA(5..8)) take 20
# samples per job, the same count for every relation as in layer
# verification, so their cost weighs in the tower as it does there; DELTA(7)
# takes 40, so that its jobs and DELTA(8)'s form one population at the top
# of the latency range and p90 falls inside it rather than between them.  Every
# other layer or axiom job is sized to take about 30 ms when this was written
# (2-core x86-64, CPython 3.11): the median job then falls inside one
# population instead of on the gap between a cheap and a dear job kind,
# where it would jump from run to run.
LAYER_SAMPLES = {
    ("GAMMA", "exact"): 20, ("B", "exact"): 20,
    ("DELTA:5", "exact"): 20, ("DELTA:6", "exact"): 20, ("DELTA:7", "exact"): 40, ("DELTA:8", "exact"): 20,
    ("NEQ", "exact"): 150, ("COLLINEAR", "exact"): 200, ("ALPHA:3", "exact"): 100, ("BETA:3", "exact"): 70,
    ("EQUIV2", "exact"): 40, ("EQUIV2", "float"): 150,
    ("PSI:2:1", "exact"): 30, ("PSI:2:1", "float"): 85,
    ("PSI:3:2", "exact"): 26, ("PSI:3:2", "float"): 75,
    ("PSI:5:3", "exact"): 23, ("PSI:5:3", "float"): 58,
    ("PSI:9:4", "exact"): 19, ("PSI:9:4", "float"): 43,
    ("LE", "exact"): 75, ("LE", "float"): 270,
    ("DELTA:2", "exact"): 31, ("DELTA:2", "float"): 165,
    ("DELTA:3", "exact"): 23, ("DELTA:3", "float"): 125,
    ("DELTA:4", "exact"): 18, ("DELTA:4", "float"): 100,
}
AXIOM_INSTANCES = {
    ("a", "exact"): 180, ("a", "float"): 700,
    ("cde", "exact"): 130, ("cde", "float"): 480,
    ("f", "exact"): 170, ("f", "float"): 800,
    ("h", "exact"): 560, ("h", "float"): 1000,
    ("b", "exact"): 230, ("b", "float"): 1000,
    ("g", "exact"): 100, ("g", "float"): 600,
    ("i", "exact"): 50, ("i", "float"): 210,
}
# order-formula samples inside each check_axiom_h job, as run_axiom_suite does
ORDER_FORMULA_SAMPLES = 4
# Quadruples and triples per map in the vogt jobs.  A known violator is
# classified "violating" only if some quadruple shows a forward violation;
# the least visible one, scale(2x,y), shows it on about a quarter of the
# quadruples on every plane, so it goes unnoticed by n quadruples with
# probability 0.745**n: 3e-3 at n = 20, or about one run in thirty failing
# on a correct package; at n >= 60 it is below 2e-8 per job.  Triples only
# feed the B-preservation counts, so they pad each job to about 1.1 s on
# every plane.  Each plane gets two vogt jobs per cycle, so that they are a
# fifth of the jobs and p90 falls in the middle of their population, not on
# its fast edge.
VOGT_JOBS_PER_PLANE = 2
VOGT_QUADRUPLES = {("l1", "exact"): 60, ("linf", "exact"): 60, ("l2", "exact"): 72, ("l2", "float"): 160}
VOGT_TRIPLES = {("l1", "exact"): 8, ("linf", "exact"): 8, ("l2", "exact"): 50, ("l2", "float"): 300}

PACKAGE_MODULES = {
    "geometry": "geometry",
    "scalars": "scalars",
    "sampling": "sampling",
    "oracles": "oracles",
    "universe": "universe",
    "closure": "closure",
    "schemas": "formulas.schemas",
    "evaluator": "formulas.evaluator",
    "verify": "formulas.verify",
    "axioms": "axioms",
    "preservation": "preservation",
    "reports": "reports",
    "cli": "cli",
}


class SetupError(RuntimeError):
    """The package under test cannot be found or imported."""


def load_package(src: Path) -> SimpleNamespace:
    """Import equitower from ``src`` afresh and return its modules by short name."""
    init = src / "equitower" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no equitower package under {src}")
    for name in [n for n in sys.modules if n == "equitower" or n.startswith("equitower.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        root = importlib.import_module("equitower")
        mods = {short: importlib.import_module(f"equitower.{path}") for short, path in PACKAGE_MODULES.items()}
    except ImportError as exc:
        raise SetupError(f"cannot import equitower from {src}: {exc}") from exc
    if Path(root.__file__).resolve() != init.resolve():
        raise SetupError(f"equitower was imported from {root.__file__}, not from {src}")
    return SimpleNamespace(root=root, **mods)


@dataclass(frozen=True)
class Spec:
    kind: str  # "layer", "axiom" or "vogt"
    target: str  # relation label, axiom id, or "suite" for the built-in map suite
    norm: str
    backend: str
    size: int  # samples, instances, or quadruples per map
    triples: int = 0  # triples per map (vogt only)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.target}@{self.norm}/{self.backend}"

    @property
    def family(self) -> str:
        return self.target.split(":")[0]


class Context:
    """The imported package plus the spaces, relations and files jobs use."""

    def __init__(self, pkg: SimpleNamespace, out_dir: Path):
        self.pkg = pkg
        self.trunc = pkg.schemas.TruncationParams()
        self.vogt_out = out_dir / "vogt-job.json"
        self._spaces: dict = {}
        self._rels: dict = {}

    def space(self, norm: str, backend: str):
        key = (norm, backend)
        if key not in self._spaces:
            tolerance = FLOAT_TOLERANCE if backend == "float" else 0.0
            self._spaces[key] = self.pkg.geometry.Space(self.pkg.geometry.NormSpec(norm), backend, tolerance)
        return self._spaces[key]

    def rel(self, label: str):
        if label not in self._rels:
            self._rels[label] = self.pkg.oracles.RelationId.parse(label)
        return self._rels[label]


def _scaled(size: int, scale: float) -> int:
    return max(1, round(size * scale))


def build_plan(ctx: Context, workload: str, scale: float = 1.0) -> list[Spec]:
    """The fixed job cycle of ``workload``; ``scale`` shrinks per-job sizes."""
    Norm = ctx.pkg.geometry.NormSpec
    choose = ctx.pkg.verify.verification_space
    plan = []
    if workload in ("tower", "witness"):
        relations = TOWER_RELATIONS if workload == "tower" else WITNESS_RELATIONS
        for norm in NORMS:
            for label in relations:
                backend = choose(ctx.rel(label), Norm(norm)).backend
                if workload == "tower" and backend != "exact":
                    continue  # exact-l2 witnesses are irrational: those layers belong to witness
                plan.append(Spec("layer", label, norm, backend, _scaled(LAYER_SAMPLES[label, backend], scale)))
    elif workload == "models":
        for norm, backend in MODEL_PLANES:
            for axiom in AXIOM_FUNCTIONS:
                plan.append(Spec("axiom", axiom, norm, backend, _scaled(AXIOM_INSTANCES[axiom, backend], scale)))
            # not scaled: fewer samples could let a known violator pass unnoticed
            vogt = Spec("vogt", "suite", norm, backend, VOGT_QUADRUPLES[norm, backend], VOGT_TRIPLES[norm, backend])
            plan += [vogt] * VOGT_JOBS_PER_PLANE
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def root_span_name(spec: Spec) -> str:
    if spec.kind == "layer":
        return "verify_layer"
    if spec.kind == "axiom":
        return f"axioms.{AXIOM_FUNCTIONS[spec.target]}"
    return "cli.main"


def call(ctx: Context, spec: Spec, seed: int, size: int | None = None):
    """The timed part of a job: exactly one call into a public entry point."""
    triples = spec.triples if size is None else size
    size = spec.size if size is None else size
    space = ctx.space(spec.norm, spec.backend)
    pkg = ctx.pkg
    if spec.kind == "layer":
        return pkg.verify.verify_layer(space, ctx.rel(spec.target), ctx.trunc, size, seed)
    if spec.kind == "axiom":
        check = getattr(pkg.axioms, AXIOM_FUNCTIONS[spec.target])
        if spec.target == "h":
            return check(space, size, seed, schnabel_samples=ORDER_FORMULA_SAMPLES)
        return check(space, size, seed)
    argv = [
        "vogt", "--seed", str(seed), "--norm", spec.norm, "--backend", spec.backend,
        "--quadruples", str(size), "--triples", str(triples), "--output", str(ctx.vogt_out),
    ]
    return pkg.cli.main(argv)


@dataclass
class Outcome:
    verdicts: int
    ok: bool
    digest: str
    why: str = ""


def judge(ctx: Context, spec: Spec, result) -> Outcome:
    """Check a job's verdicts against the oracles and the map expectations.

    The payload digest is taken over the report as ``stable_json_dumps``
    renders it, so two runs of a job agree on it iff their reports are
    byte-identical.
    """
    dumps = ctx.pkg.reports.stable_json_dumps
    if spec.kind == "layer":
        text = dumps(result.to_dict())
        ok = result.passed and result.agreements == result.samples == spec.size
        why = "" if ok else f"{result.samples - result.agreements} of {result.samples} samples disagree with the oracle"
        return Outcome(result.samples, ok, _digest(text), why)
    if spec.kind == "axiom":
        text = dumps(result.to_dict())
        verdicts = result.samples
        ok = result.passed and result.samples == spec.size
        if spec.target == "h":
            order = result.extra.get("order_formula", {})
            verdicts += order.get("samples", 0)
            ok = ok and order.get("samples") == order.get("agreements") == ORDER_FORMULA_SAMPLES
        why = "" if ok else f"{len(result.violations)} violations"
        return Outcome(verdicts, ok, _digest(text), why)
    text = ctx.vogt_out.read_text(encoding="utf-8")
    summary = json.loads(text)
    maps = summary["maps"]
    verdicts = sum(m["quadruples"] + m["triples"] for m in maps)
    ok = result == 0 and bool(maps) and summary["expectation_mismatches"] == 0
    ok = ok and all(m.get("expectation_met") for m in maps)
    why = "" if ok else f"exit {result}, {summary['expectation_mismatches']} expectation mismatches"
    return Outcome(verdicts, ok, _digest(text), why)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class JobRecord:
    spec: Spec
    seed: int
    seconds: float
    verdicts: int
    ok: bool
    digest: str
    why: str = ""


@dataclass
class Pass:
    """The jobs of one measured loop over whole plan cycles."""

    jobs: list = field(default_factory=list)
    cycles: int = 0

    @property
    def verdicts(self) -> int:
        return sum(j.verdicts for j in self.jobs)

    @property
    def busy_seconds(self) -> float:
        return sum(j.seconds for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if not j.ok)


def warm_up(ctx: Context, plan: list[Spec]) -> None:
    """Run every spec once at the smallest size: fills expansion caches and
    touches every code path before timing.  Verdicts are not judged here.
    The warm-up seeds are fixed, so set-up does the same work in every run."""
    rng = random.Random("warm-up")
    for spec in dict.fromkeys(plan):
        if spec.kind == "vogt":
            ctx.vogt_out.unlink(missing_ok=True)
        call(ctx, spec, rng.randrange(1 << 30), size=1)


def run_pass(
    ctx: Context,
    plan: list[Spec],
    seed: int,
    *,
    seconds: float = 0.0,
    min_jobs: int = 0,
    cycles: int | None = None,
    tracer=None,
) -> Pass:
    """Run whole plan cycles, closed loop, one job at a time.

    Stops after ``cycles`` cycles if given, else once ``seconds`` have passed
    and at least ``min_jobs`` jobs ran.  Job seeds come from ``seed`` in
    order, so a given cycle holds the same jobs in every pass of a run.
    """
    rng = random.Random(seed)
    out = Pass()
    start = time.perf_counter()
    while True:
        if cycles is not None:
            if out.cycles >= cycles:
                break
        elif out.cycles and time.perf_counter() - start >= seconds and len(out.jobs) >= min_jobs:
            break
        for spec in plan:
            job_seed = rng.randrange(1 << 30)
            if spec.kind == "vogt":
                ctx.vogt_out.unlink(missing_ok=True)
            result = error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = call(ctx, spec, job_seed)
                else:
                    result = tracer.run_job(root_span_name(spec), spec, lambda: call(ctx, spec, job_seed))
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                error = exc
            elapsed = time.perf_counter() - t0
            if error is None:
                try:
                    outcome = judge(ctx, spec, result)
                except (OSError, ValueError, KeyError) as exc:
                    outcome = Outcome(0, False, "", f"unreadable result: {exc!r}")
            else:
                outcome = Outcome(0, False, "", f"raised {error!r}")
            if tracer is not None:
                tracer.set_job_verdicts(outcome.verdicts)
            out.jobs.append(
                JobRecord(spec, job_seed, elapsed, outcome.verdicts, outcome.ok, outcome.digest, outcome.why)
            )
        out.cycles += 1
    return out
