#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

    python3 bench/selftest.py

1. Runs every workload untraced and traced at tiny job sizes, and checks
   that each run emits exactly the metrics BENCHMARK.json names, with their
   units, and that the unmodified package passes the gate.
2. Substitutes an oracle that flips NEQ's verdict and checks that the gate
   trips: ``job_fail_ratio`` rises above 0 and ``correct`` turns false.
3. Copies only BENCHMARK.json and the benchmark's own files into an empty
   directory and checks that the benchmark refuses to run there.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

SCALE = 0.1  # 2 samples per layer job, 20 instances per axiom job
SECONDS = 0.5
MIN_JOBS = 10
SEED = 7


def flip_neq(ctx) -> None:
    """Make the reference oracle answer NEQ wrongly."""
    verify = ctx.pkg.verify
    honest = verify.oracle_truth

    def flipped(space, rel, points):
        truth = honest(space, rel, points)
        return not truth if rel.name == "NEQ" else truth

    verify.oracle_truth = flipped


def _quiet(line: str) -> None:
    pass


def check_metrics(spec: dict, problems: list[str]) -> None:
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run.run(workload, SEED, SECONDS, trace, scale=SCALE, min_jobs=MIN_JOBS, report=_quiet)
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            where = f"{workload} trace={int(trace)}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in set(got) & set(expected[trace]) if got[n] != expected[trace][n])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
            for name, entry in result["metrics"].items():
                if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
                    problems.append(f"{where}: {name} is not a finite number")
            if not trace:
                zero = [m["name"] for m in spec["end_to_end"] if result["metrics"][m["name"]]["value"] <= 0]
                if zero:
                    problems.append(f"{where}: end-to-end metrics not above 0: {zero}")
            ratio = result["failed"] / result["attempted"]
            if not result["correct"] or ratio:
                problems.append(f"{where}: the unmodified package failed the gate ({result['failed']} jobs)")
            print(f"{where}: {len(got)} metrics, {result['attempted']} jobs, job_fail_ratio = {ratio}", flush=True)


def check_gate(problems: list[str]) -> None:
    result = run.run("tower", SEED, SECONDS, False, scale=SCALE, min_jobs=MIN_JOBS,
                     after_setup=flip_neq, report=_quiet)
    ratio = result["failed"] / result["attempted"]
    print(f"planted NEQ flip: job_fail_ratio = {ratio:.3f}, correct = {result['correct']}", flush=True)
    if not ratio > 0 or result["correct"]:
        problems.append("a flipped NEQ oracle did not trip the gate")


def check_bare_directory(problems: list[str]) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy2(path, bare / "bench")
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "tower", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"without src/: exit code {done.returncode}, {done.stderr.strip()}", flush=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("the benchmark ran without the package")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_metrics(spec, problems)
    check_gate(problems)
    check_bare_directory(problems)
    for line in problems:
        print(f"PROBLEM: {line}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
