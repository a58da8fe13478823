#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --workload tower --seeds 1-10 [--json OUT]

Runs ``bench/run.py`` once per seed, one run at a time, and prints each
metric's median, quartiles and interquartile distance as a share of the
median, next to the bound BENCHMARK.json fixes for it.  A benchmark is
steady when every spread (set-up time aside) is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import git_commit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="a range such as 1-10 or a list such as 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write the per-seed values and summary to this file")
    args = parser.parse_args(argv)

    runs = {}
    for seed in parse_seeds(args.seeds):
        result = one_run(args.workload, seed, args.seconds)
        runs[seed] = result
        values = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    summary = {}
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        ok = name == "setup_s" or share < bound / 3
        steady = steady and ok
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share, "bound": bound}
        print(f"{name}: median {median:.6g}, quartiles {q1:.6g}..{q3:.6g}, spread {share:.3%} "
              f"(bound {bound:.0%}, a third is {bound / 3:.2%}){'' if ok else '  <-- too wide'}")
    if args.json:
        env = {"git_commit": git_commit(ROOT), "python": platform.python_version(), "platform": platform.platform()}
        Path(args.json).write_text(json.dumps({"workload": args.workload, "environment": env, "seconds": args.seconds,
                                               "runs": runs, "summary": summary}, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    all_correct = all(r["correct"] for r in runs.values())
    print(f"all runs correct: {all_correct}; steady: {steady}")
    return 0 if all_correct and steady else 1


if __name__ == "__main__":
    sys.exit(main())
