"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/steady.py --workloads verify-all,table-deep --seeds 1-10 \
        [--seconds 35] [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, from the
current directory.  For every metric it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (third minus first
quartile, over the median).  ``--out`` also writes the runs and the summary
as JSON, with the machine, CPU count, Python version and git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="35")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs, summary = {}, {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {
            name: summarise([r["metrics"][name]["value"] for r in runs[workload]])
            for name in names}
        for name, s in summary[workload].items():
            print(f"  {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        record = {"machine": platform.machine(), "nproc": os.cpu_count(),
                  "python": platform.python_version(), "git_commit": git_commit(),
                  "seeds": seeds(args.seeds), "seconds": args.seconds, "trace": args.trace,
                  "summary": summary, "runs": runs}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
