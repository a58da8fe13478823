"""Span tracing from the benchmark's side of each layer boundary.

Nothing in the package is edited: the names one layer calls the next
through (``verify.closure_for_relation``, ``evaluator.oracle_truth``, ...)
are rebound, for the traced pass only, to wrappers that record time.

* A span is ``(name, start, end, parent, job)`` plus a small ``meta`` dict.
  Job roots and the coarse boundaries (closure builds, the order-formula
  check inside axiom h, ``run_experiment``, ``write_report``) are spans.
* Hot boundaries (oracles, samplers, sphere constructions, universe merges)
  are leaves: their calls are summed into the innermost open span as
  ``leaves[name] = [calls, ns, units]`` rather than kept one by one.
* The ``Space`` predicates are counted, never timed; their cost per call
  comes from :mod:`micro`.

A span's self time is its duration minus its child spans and its leaves.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, JOB, META, LEAVES = range(7)

# (module, attribute, layer): coarse boundaries recorded as spans
SPAN_POINTS = (
    ("verify", "closure_for_relation", "closure"),
    ("axioms", "verify_layer", "formulas"),
    ("cli", "run_experiment", "preservation"),
    ("cli", "write_report", "reports"),
)
_SAMPLERS = (
    "rand_point", "rand_nonzero_vector", "rand_fraction", "rand_positive_fraction",
    "rand_unit_fraction", "equal_length_mate", "rational_distance_triangle",
)
# (module, attribute, layer): hot boundaries summed into their parent span
LEAF_POINTS = (
    ("verify", "sample_instance", "sampling"),
    ("verify", "oracle_truth", "oracles"),
    ("evaluator", "oracle_truth", "oracles"),
    ("closure", "oracle_psi", "oracles"),
    ("axioms", "oracle_B", "oracles"),
    ("axioms", "oracle_collinear", "oracles"),
    ("axioms", "oracle_le", "oracles"),
    ("axioms", "oracle_parallelogram", "oracles"),
    ("preservation", "oracle_B", "oracles"),
    ("closure", "sphere_intersection_point", "geometry"),
    ("closure", "_sphere_pair_candidates", "geometry"),
    ("axioms", "sphere_intersection_point", "geometry"),
    *(("axioms", name, "sampling") for name in _SAMPLERS),
    *(("preservation", name, "sampling") for name in ("rand_point", "rand_unit_fraction", "equal_length_mate")),
)
UNIVERSE_LEAF = "universe.build"
PREDICATES = (
    "points_eq", "eq_dist", "eq_dist_scaled", "le_dist", "le_dist_scaled",
    "ge_dist_scaled", "path_sum_eq", "path_defect_at_most", "scaled_ratio_ceil",
)
ROOT_LAYERS = {"verify_layer": "formulas", "cli.main": "cli"}

FAMILIES = ("GAMMA", "B", "DELTA", "NEQ", "ALPHA", "BETA", "COLLINEAR", "EQUIV2", "PSI", "LE")
AXIOMS = ("a", "cde", "f", "h", "b", "g", "i")
PLANES = ("l1", "l2", "linf", "l2-float")
LAYERS = ("formulas", "closure", "universe", "oracles", "sampling", "geometry", "axioms", "preservation", "reports", "cli")


def layer_of(name: str) -> str:
    if name in ROOT_LAYERS:
        return ROOT_LAYERS[name]
    if name.startswith("axioms.check_axiom"):
        return "axioms"
    if name == UNIVERSE_LEAF:
        return "universe"
    for module, attr, layer in SPAN_POINTS + LEAF_POINTS:
        if name == f"{module}.{attr}":
            return layer
    raise KeyError(name)


class Tracer:
    """Spans kept in memory for one traced pass; written out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.jobs: list[tuple[int, int]] = []  # (root span index, wall ns)
        self.counts = dict.fromkeys(PREDICATES, 0)
        self.leaf_depth = 0
        self.origin = time.perf_counter_ns()

    def open(self, name: str, meta: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, len(self.jobs), meta or {}, {}])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self.stack.pop()

    def run_job(self, name: str, spec, fn):
        """Run one job under a root span, recording its predicate counts."""
        before = dict(self.counts)
        t0 = time.perf_counter_ns()
        root = self.open(name, {
            "spec": spec.label, "family": spec.family, "size": spec.size,
            "plane": spec.norm if spec.backend == "exact" else f"{spec.norm}-{spec.backend}",
        })
        try:
            return fn()
        finally:
            self.close(root)
            self.jobs.append((root, time.perf_counter_ns() - t0))
            self.spans[root][META]["predicates"] = {k: v - before[k] for k, v in self.counts.items() if v != before[k]}

    def set_job_verdicts(self, verdicts: int) -> None:
        self.spans[self.jobs[-1][0]][META]["verdicts"] = verdicts

    def span_wrapper(self, name: str, fn, meta=None):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if meta is not None:
                tracer.spans[index][META].update(meta(args, result))
            return result

        return wrapper

    def leaf_wrapper(self, name: str, fn, units=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.leaf_depth or not tracer.stack:
                return fn(*args, **kwargs)  # inside another leaf: its time is that leaf's
            tracer.leaf_depth = 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - t0
                tracer.leaf_depth = 0
                agg = tracer.spans[tracer.stack[-1]][LEAVES].setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += elapsed
                if units is not None:
                    agg[2] += units(args)

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "i": i, "name": s[NAME], "start_ns": s[START] - self.origin, "end_ns": s[END] - self.origin,
                    "parent": s[PARENT], "job": s[JOB], "meta": s[META], "leaves": s[LEAVES],
                }, sort_keys=True) + "\n")


def _space_plane(space) -> str:
    label = space.norm.label()
    return label if space.backend == "exact" else f"{label}-{space.backend}"


_SPAN_META = {
    "verify.closure_for_relation": lambda args, result: {"family": args[1].name, "points": len(result)},
    "axioms.verify_layer": lambda args, result: {"family": args[1].name, "size": args[3]},
    "cli.run_experiment": lambda args, result: {"plane": _space_plane(args[0]), "maps": len(args[1])},
    "cli.write_report": lambda args, result: {"bytes": Path(args[0]).stat().st_size},
}


class Instrumentation:
    """Rebinds the traced names while in use; restores them on exit."""

    def __init__(self, pkg, tracer: Tracer):
        self.pkg = pkg
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Instrumentation":
        pkg, tracer = self.pkg, self.tracer
        for module, attr, _ in SPAN_POINTS:
            name = f"{module}.{attr}"
            self._patch(getattr(pkg, module), attr, lambda fn, n=name: tracer.span_wrapper(n, fn, _SPAN_META.get(n)))
        for module, attr, _ in LEAF_POINTS:
            name = f"{module}.{attr}"
            self._patch(getattr(pkg, module), attr, lambda fn, n=name: tracer.leaf_wrapper(n, fn))
        self._patch(pkg.universe.Universe, "_merge", lambda fn: tracer.leaf_wrapper(UNIVERSE_LEAF, fn, lambda a: len(a[1])))
        for pred in PREDICATES:
            self._patch(pkg.geometry.Space, pred, lambda fn, p=pred: tracer.count_wrapper(p, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class Profile:
    """Self times and per-layer metrics of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.spans = spans
        child = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.self_ns = [
            s[END] - s[START] - child[i] - sum(agg[1] for agg in s[LEAVES].values()) for i, s in enumerate(spans)
        ]
        self.layer_ns: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            self.layer_ns[layer_of(s[NAME])] += self.self_ns[i]
            for leaf, agg in s[LEAVES].items():
                self.layer_ns[layer_of(leaf)] += agg[1]
        self.job_ns = sum(spans[root][END] - spans[root][START] for root, _ in tracer.jobs)
        self.wall_ns = sum(wall for _, wall in tracer.jobs)
        self.verdicts = sum(spans[root][META].get("verdicts", 0) for root, _ in tracer.jobs)
        self.predicate_calls = sum(sum(spans[root][META]["predicates"].values()) for root, _ in tracer.jobs)
        self.closure_inclusive_ns = sum(s[END] - s[START] for s in spans if s[NAME] == "verify.closure_for_relation")
        # self times may not go negative, and the layers must add up to each job's wall time
        self.min_self_ns = min(self.self_ns, default=0)
        self.accounting_gap = max(
            (abs(wall - (spans[root][END] - spans[root][START])) / wall for root, wall in tracer.jobs if wall),
            default=0.0,
        )

    def _select(self, predicate):
        return [i for i, s in enumerate(self.spans) if predicate(s)]

    def _leaf_totals(self, indices, layer: str) -> tuple[int, int, int]:
        calls = ns = units = 0
        for i in indices:
            for leaf, agg in self.spans[i][LEAVES].items():
                if layer_of(leaf) == layer:
                    calls, ns, units = calls + agg[0], ns + agg[1], units + agg[2]
        return calls, ns, units

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics whose denominator is nonzero on these spans."""
        out: dict[str, tuple[float, str]] = {}
        spans = self.spans

        def put(name, num, den, unit, scale=1.0):
            if den:
                out[name] = (num / den * scale, unit)

        every = range(len(spans))
        formulas = self._select(lambda s: layer_of(s[NAME]) == "formulas")
        put("formulas.eval_self_ms_per_verdict", sum(self.self_ns[i] for i in formulas),
            sum(spans[i][META]["size"] for i in formulas), "ms", 1e-6)
        for fam in FAMILIES:
            mine = [i for i in formulas if spans[i][META]["family"] == fam]
            put(f"formulas.eval_self_ms_per_verdict.{fam}", sum(self.self_ns[i] for i in mine),
                sum(spans[i][META]["size"] for i in mine), "ms", 1e-6)
        dispatches = sum(spans[i][LEAVES].get("evaluator.oracle_truth", (0,))[0] for i in formulas)
        put("formulas.oracle_dispatches_per_verdict", dispatches, sum(spans[i][META]["size"] for i in formulas), "count")

        closures = self._select(lambda s: s[NAME] == "verify.closure_for_relation")
        put("closure.build_ms_per_call", sum(spans[i][END] - spans[i][START] for i in closures), len(closures), "ms", 1e-6)
        for fam in FAMILIES:
            mine = [i for i in closures if spans[i][META].get("family") == fam]
            put(f"closure.build_ms_per_call.{fam}", sum(spans[i][END] - spans[i][START] for i in mine), len(mine), "ms", 1e-6)
        put("closure.universe_points_mean", sum(spans[i][META].get("points", 0) for i in closures), len(closures), "count")
        put("closure.sphere_constructions_per_call", self._leaf_totals(closures, "geometry")[0], len(closures), "count")

        _, merge_ns, offered = self._leaf_totals(every, "universe")
        put("universe.build_us_per_point", merge_ns, offered, "us", 1e-3)
        calls, ns, _ = self._leaf_totals(every, "oracles")
        put("oracles.us_per_call", ns, calls, "us", 1e-3)
        put("oracles.calls_per_verdict", calls, self.verdicts, "count")
        put("sampling.us_per_verdict", self._leaf_totals(every, "sampling")[1], self.verdicts, "us", 1e-3)
        put("geometry.predicate_calls_per_verdict", self.predicate_calls, self.verdicts, "count")

        for axiom in AXIOMS:
            mine = self._select(lambda s, a=axiom: s[PARENT] < 0 and s[META].get("spec", "").startswith(f"axiom:{a}@"))
            put(f"axioms.us_per_instance.{axiom}", sum(spans[i][END] - spans[i][START] for i in mine),
                sum(spans[i][META]["size"] for i in mine), "us", 1e-3)
        experiments = self._select(lambda s: s[NAME] == "cli.run_experiment")
        for plane in PLANES:
            mine = [i for i in experiments if spans[i][META].get("plane") == plane]
            put(f"preservation.ms_per_map.{plane}", sum(spans[i][END] - spans[i][START] for i in mine),
                sum(spans[i][META]["maps"] for i in mine), "ms", 1e-6)
        cli_jobs = self._select(lambda s: s[NAME] == "cli.main")
        writes = self._select(lambda s: s[NAME] == "cli.write_report")
        put("reports.dump_ms_per_job", sum(spans[i][END] - spans[i][START] for i in writes), len(cli_jobs), "ms", 1e-6)
        put("reports.bytes_per_job", sum(spans[i][META].get("bytes", 0) for i in writes), len(cli_jobs), "bytes")
        put("cli.dispatch_ms_per_job", sum(self.self_ns[i] for i in cli_jobs), len(cli_jobs), "ms", 1e-6)
        return out

    def shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the jobs' total time."""
        return {layer: self.layer_ns.get(layer, 0) / self.job_ns for layer in LAYERS} if self.job_ns else {}
