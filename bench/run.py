#!/usr/bin/env python3
"""The equitower benchmark: one seeded, single-process run of one workload.

    python3 bench/run.py --workload tower --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` runs it untraced and then traced, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the workloads, the metrics and how to read spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from micro import PLANES as MICRO_PLANES, PREDICATES, SPHERE_PLANES, micro_metrics
from spans import AXIOMS, FAMILIES, PLANES, Instrumentation, Profile, Tracer
from workloads import WORKLOADS, Context, SetupError, build_plan, load_package, run_pass, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_JOBS = 100  # so that at least ten jobs lie beyond p90

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [("formulas.eval_self_ms_per_verdict", "ms")]
    names += [(f"formulas.eval_self_ms_per_verdict.{f}", "ms") for f in FAMILIES]
    names += [("formulas.oracle_dispatches_per_verdict", "count"), ("closure.build_ms_per_call", "ms")]
    names += [(f"closure.build_ms_per_call.{f}", "ms") for f in FAMILIES]
    names += [
        ("closure.universe_points_mean", "count"),
        ("closure.sphere_constructions_per_call", "count"),
        ("universe.build_us_per_point", "us"),
        ("oracles.us_per_call", "us"),
        ("oracles.calls_per_verdict", "count"),
        ("sampling.us_per_verdict", "us"),
        ("geometry.predicate_calls_per_verdict", "count"),
    ]
    for pred in PREDICATES:
        names += [(f"geometry.{pred}_us.{n}.{b}", "us") for n, b in MICRO_PLANES]
        names += [(f"geometry.{pred}_true.{n}.{b}", "count") for n, b in MICRO_PLANES]
    names += [(f"geometry.sphere_intersection_us.{n}.{b}", "us") for n, b in SPHERE_PLANES]
    names += [("scalars.cmp_radical_sums_us", "us"), ("scalars.cmp_radical_sums_le", "count")]
    names += [(f"axioms.us_per_instance.{a}", "us") for a in AXIOMS]
    names += [(f"preservation.ms_per_map.{p}", "ms") for p in PLANES]
    names += [
        ("reports.dump_ms_per_job", "ms"),
        ("reports.bytes_per_job", "bytes"),
        ("cli.dispatch_ms_per_job", "ms"),
        ("trace.verdicts_per_s_untraced", "1/s"),
        ("trace.verdicts_per_s_traced", "1/s"),
        ("trace.overhead_pct", "%"),
        ("trace.accounting_gap_pct", "%"),
    ]
    return names


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(pkg) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "package_version": pkg.root.__version__,
        "git_commit": git_commit(ROOT),
    }


def set_up(workload: str, scale: float):
    """Import the package afresh, build the job plan and warm up."""
    t0 = time.perf_counter()
    ctx = Context(load_package(SRC), OUT)
    plan = build_plan(ctx, workload, scale)
    warm_up(ctx, plan)
    return time.perf_counter() - t0, ctx, plan


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def timed_run(ctx, plan, seed, seconds, min_jobs, setup_times, report):
    done = run_pass(ctx, plan, seed, seconds=seconds, min_jobs=min_jobs)
    latencies = [j.seconds * 1e3 for j in done.jobs]
    values = {
        "verdicts_per_s": done.verdicts / done.busy_seconds,
        "job_ms_p50": statistics.median(latencies),
        "job_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report(f"jobs: {len(done.jobs)} in {done.cycles} cycles of {len(plan)}; verdicts: {done.verdicts}")
    for name, unit in END_TO_END:
        note = f" (over {len(done.jobs)} jobs)" if name.startswith("job_ms") else ""
        note = f" (median of {len(setup_times)} set-ups)" if name == "setup_s" else note
        report(f"{name} = {_fmt(values[name])} {unit}{note}")
    report(f"job_fail_ratio = {_fmt(done.failed / len(done.jobs))} ratio ({done.failed} of {len(done.jobs)} jobs failed)")
    _report_failures(done.jobs, report)
    return len(done.jobs), done.failed, metrics


def _report_failures(jobs, report, limit: int = 5) -> None:
    for job in [j for j in jobs if not j.ok][:limit]:
        report(f"FAILED {job.spec.label} seed={job.seed}: {job.why}")


def _design_checks(workload: str, prof: Profile) -> list[str]:
    """The layer-share claims the workloads were chosen on, with their bases."""
    shares = prof.shares()
    base = f"of {prof.job_ns / 1e6:.1f} ms job time"
    closure = prof.closure_inclusive_ns / prof.job_ns if prof.job_ns else 0.0
    if workload == "tower":
        top = max(shares, key=shares.get)
        return [f"formulas self time is the largest layer: {top == 'formulas'} "
                f"(formulas {shares['formulas']:.1%}, largest {top} {shares[top]:.1%}, {base})"]
    if workload == "witness":
        return [f"closure takes >= 35% of job time: {closure >= 0.35} (closure incl. children {closure:.1%}, {base})"]
    both = shares["formulas"] + closure
    return [f"formulas + closure take < 5% of job time: {both < 0.05} "
            f"(formulas self {shares['formulas']:.2%} + closure incl. children {closure:.2%}, {base})"]


def traced_run(workload, ctx, plan, seed, seconds, min_jobs, scale, env, report):
    """Untraced pass, then the same jobs traced, then a probe of the other
    workloads' cycles that supplies layer metrics this workload never reaches."""
    micro = micro_metrics(ctx.pkg, seed)
    plain = run_pass(ctx, plan, seed, seconds=seconds / 2, min_jobs=min_jobs)
    tracer = Tracer()
    with Instrumentation(ctx.pkg, tracer) as instr:
        traced = run_pass(ctx, plan, seed, cycles=plain.cycles, tracer=tracer)
    missing = list(instr.missing)
    mismatches = [
        a.spec.label for a, b in zip(plain.jobs, traced.jobs) if a.digest != b.digest
    ]
    probe_tracer = Tracer()
    probes = []
    for other in WORKLOADS:
        if other == workload:
            continue
        other_plan = build_plan(ctx, other, scale)
        warm_up(ctx, other_plan)
        with Instrumentation(ctx.pkg, probe_tracer):
            probes.append(run_pass(ctx, other_plan, seed + 1, cycles=1, tracer=probe_tracer))

    own, probe = Profile(tracer), Profile(probe_tracer)
    own_metrics, probe_metrics = own.metrics(), probe.metrics()
    measured = {**probe_metrics, **own_metrics, **micro}
    untraced_rate = plain.verdicts / plain.busy_seconds
    traced_rate = traced.verdicts / traced.busy_seconds
    measured["trace.verdicts_per_s_untraced"] = (untraced_rate, "1/s")
    measured["trace.verdicts_per_s_traced"] = (traced_rate, "1/s")
    measured["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
    measured["trace.accounting_gap_pct"] = (own.accounting_gap * 100, "%")

    metrics = {}
    for name, unit in per_layer_names():
        value, _ = measured.get(name, (0.0, unit))
        if name not in measured:
            report(f"warning: {name} was not measured; reported as 0")
        metrics[name] = {"value": value, "unit": unit}

    jobs = plain.jobs + traced.jobs + [j for p in probes for j in p.jobs]
    failed = sum(1 for j in jobs if not j.ok) + len(mismatches)
    shares = own.shares()
    checks = _design_checks(workload, own)
    report(f"traced jobs: {len(traced.jobs)} in {traced.cycles} cycles; probe jobs: {sum(len(p.jobs) for p in probes)}")
    report(f"tracing overhead: {_fmt(untraced_rate)} verdicts/s untraced vs {_fmt(traced_rate)} traced")
    report(f"layer self time, share of {own.job_ns / 1e6:.1f} ms in {len(tracer.jobs)} jobs: "
           + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    report(f"accounting: largest job gap {own.accounting_gap:.3%}; smallest span self time {own.min_self_ns} ns")
    for line in checks:
        report(f"design check: {line}")
    for name in missing:
        report(f"warning: {name} not found; not traced")
    for label in mismatches[:5]:
        report(f"FAILED digest differs between untraced and traced runs: {label}")
    _report_failures(jobs, report)
    for name, entry in metrics.items():
        source = "" if name in own_metrics or name not in probe_metrics else " (probe)"
        report(f"{name} = {_fmt(entry['value'])} {entry['unit']}{source}")

    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path, {
        "workload": workload, "seed": seed, "environment": env, "metrics": metrics,
        "layer_share": shares, "design_checks": checks, "untraced_names": missing,
        "digest_mismatches": mismatches, "jobs": len(tracer.jobs),
    })
    report(f"spans: {spans_path.relative_to(ROOT)}")
    return len(jobs), failed, metrics


def run(workload: str, seed: int, seconds: float, trace: bool, *, scale: float = 1.0,
        min_jobs: int = MIN_JOBS, after_setup=None, report=print) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    OUT.mkdir(exist_ok=True)
    repeats = 1 if trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        elapsed, ctx, plan = set_up(workload, scale)
        setup_times.append(elapsed)
    if after_setup is not None:
        after_setup(ctx)
    env = environment(ctx.pkg)
    report("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    report(f"workload: {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}, one process, closed loop, 1 client")
    try:
        if trace:
            attempted, failed, metrics = traced_run(workload, ctx, plan, seed, seconds, min_jobs, scale, env, report)
        else:
            attempted, failed, metrics = timed_run(ctx, plan, seed, seconds, min_jobs, setup_times, report)
    finally:
        ctx.vogt_out.unlink(missing_ok=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
