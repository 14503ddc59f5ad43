"""Benchmark for pcmix: three seeded workloads, each in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a pcmix checkout; the program is taken from ``src``.
Workloads (inputs from ``inputs.py``; seed 0 gives the fixed inputs):

* ``verify-all``: one ``pcmix verify --ids all --n-max 10 --format json``
  over the seeded grid (24,060 checks at seed 0).
* ``table-deep``: eight ``pcmix table --n-max 40 --format json`` processes,
  one per polynomial family plus a second pc-mixed.
* ``sheffer-route``: one library process (``worker.py sheffer``) at order 24
  over the pair catalogue plus eight seeded mixed pairs.

A pass runs the workload's processes one at a time from this process.  With
``--trace 0`` passes repeat while another fits in ``--seconds`` (at least
one), and the end-to-end metrics are medians over passes.  With
``--trace 1`` one untraced and one traced pass run, and the per-layer
metrics come from the traced one; its span files are kept in
``.perfbench-traces/``.  Every output is checked after its process exits,
outside the timed region; a failed check counts its items as failed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit code 2 means the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("verify-all", "table-deep", "sheffer-route")
SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_DIR = ".perfbench-traces"

SPAN_LAYERS = (
    "poly.mul", "poly.add", "poly.compose", "poly.eval",
    "series.mul", "series.compose", "series.egf", "series.inverse", "series.revert",
    "series.ctor",
    "special.stirling", "special.numbers", "special.factorial_poly", "special.lif",
    "sheffer.polynomial", "sheffer.recurrence", "sheffer.connection", "sheffer.operator",
    "families.lookup", "families.gf_build",
    "identities.verify", "identities.grid", "cli",
)


# -- processes -------------------------------------------------------------------


class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.end - time.monotonic(), 1.0)


def run_child(argv, out_path, err_path, env, budget):
    """Run one process to completion: (wall_s, peak_rss_mb, exit_code, cpu_s).

    ``os.wait4`` gives this child's own peak RSS; RUSAGE_CHILDREN would carry
    the largest peak of every earlier child into later ones.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(budget.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, usage.ru_utime + usage.ru_stime


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- workloads -------------------------------------------------------------------


class Job:
    def __init__(self, label: str, args: list[str], module: bool):
        self.label = label
        self.args = args
        self.module = module  # True: a `pcmix` CLI call; False: a worker call

    def argv(self, trace_out: str | None) -> list[str]:
        worker = [sys.executable, os.path.join(HERE, "worker.py")]
        if trace_out:
            return worker + ["--trace-out", trace_out] + (["cli"] if self.module else []) + self.args
        if self.module:
            return [sys.executable, "-m", "pcmix"] + self.args
        return worker + self.args


class Plan:
    """The processes of one pass, its item count, and the output check."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload == "verify-all":
            self.grid = inputs.verify_grid(seed)
            self.jobs = [Job("verify", inputs.verify_argv(self.grid), True)]
            self.items = sum(checks.expected_checks(self.grid).values())
        elif workload == "table-deep":
            self.tables = inputs.table_jobs(seed)
            self.jobs = [Job(f"table{i}-{family}", inputs.table_argv(family, params), True)
                         for i, (family, params) in enumerate(self.tables)]
            self.items = len(self.tables) * (inputs.TABLE_N_MAX + 1)
        else:
            self.spec = inputs.sheffer_pairs(seed)
            self.jobs = [Job("sheffer", ["sheffer", json.dumps(self.spec)], False)]
            self.items = None  # known once the catalogue size is read back

    def check(self, outputs: list[str]) -> tuple[int, int, list[str]]:
        """(items attempted, items failed, problems) for one pass's outputs."""
        if self.workload == "verify-all":
            failed, problems = checks.check_verify(outputs[0], self.grid)
            return self.items, failed, problems
        if self.workload == "table-deep":
            failed, problems = 0, []
            for path, (family, params) in zip(outputs, self.tables):
                found = checks.check_table(path, family, params)
                if found:
                    failed += inputs.TABLE_N_MAX + 1
                    problems += found
            return self.items, failed, problems
        with open(outputs[0]) as fh:
            members = len(json.load(fh)["pairs"]) * inputs.SHEFFER_ORDER
        failed, problems = checks.check_sheffer(outputs[0], self.spec)
        if problems and failed == 0:
            failed = members
        self.items = members
        return members, failed, problems


@dataclasses.dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    digests: dict
    problems: list


def run_pass(plan, rundir, env, budget, trace_dir=None) -> Pass:
    outputs, cpu, rss, problems = [], [], [], []
    start = time.perf_counter()
    for job in plan.jobs:
        out = os.path.join(rundir, job.label + ".out")
        err = os.path.join(rundir, job.label + ".err")
        trace_out = os.path.join(trace_dir, job.label + ".json") if trace_dir else None
        _, peak, code, cpu_s = run_child(job.argv(trace_out), out, err, env, budget)
        outputs.append(out)
        cpu.append(cpu_s)
        rss.append(peak)
        if code != 0:
            with open(err, errors="replace") as fh:
                problems.append(f"{job.label} exited {code}: {fh.read()[-2000:]}")
    wall_s = time.perf_counter() - start
    digests = {job.label: sha256(path) for job, path in zip(plan.jobs, outputs)}
    try:
        attempted, failed, found = plan.check(outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        attempted, failed, found = plan.items or 1, plan.items or 1, [f"malformed output: {exc!r}"]
    problems += found
    if problems and failed == 0:
        failed = attempted
    return Pass(wall_s, sum(cpu), max(rss), attempted, failed, digests, problems)


def measure_setup(rundir, env, budget) -> float:
    """Median wall time of a fresh interpreter that imports pcmix."""
    argv = [sys.executable, "-c", "import pcmix"]
    out, err = os.path.join(rundir, "setup.out"), os.path.join(rundir, "setup.err")
    times = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code, _ = run_child(argv, out, err, env, budget)
        if code != 0:
            with open(err, errors="replace") as fh:
                raise RuntimeError(f"import pcmix failed: {fh.read()[-2000:]}")
        if i:  # the first start compiles bytecode; it is not timed
            times.append(wall)
    return statistics.median(times)


# -- per-layer metrics -----------------------------------------------------------


def merge_traces(paths: list[str]) -> dict:
    stats: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for name, s in report["stats"].items():
            into = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += s[key]
        for name, value in report["counters"].items():
            if name.endswith("order_max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return {"stats": stats, "counters": counters}


def layer_metrics(trace: dict, overhead: float) -> dict:
    stats, counters = trace["stats"], trace["counters"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for layer in SPAN_LAYERS:
        s = stats.get(layer, empty)
        put(f"{layer}.calls", s["calls"], "count")
        put(f"{layer}.self_s", s["self_s"], "s")
    put("series.ctor.order_max", counters.get("series.ctor.order_max", 0), "count")
    put("series.ctor.order_sum", counters.get("series.ctor.order_sum", 0), "count")
    put("families.gf_build.order_sum", counters.get("families.gf_build.order_sum", 0), "count")
    lookups = counters.get("families.lookups", 0)
    misses = counters.get("families.lookup_misses", 0)
    put("families.hit_ratio", (lookups - misses) / lookups if lookups else 0.0, "ratio")
    needed = counters.get("families.orders_needed", 0)
    put("families.order_waste",
        counters.get("families.orders_built", 0) / needed if needed else 0.0, "ratio")
    for ident in checks.CATALOGUE:
        put(f"identities.{ident}.s", stats.get(f"identities.{ident}", empty)["total_s"], "s")
    put("trace.overhead", overhead, "ratio")
    return metrics


# -- entry point -----------------------------------------------------------------


def run(args, root: str) -> tuple[dict, list[Pass]]:
    """The result line and the passes behind it."""
    plan = Plan(args.workload, args.seed)
    env = child_env(root)
    budget = Budget(RUN_BUDGET_S)
    with open(DIGESTS) as fh:
        golden = json.load(fh).get(args.workload, {}) if args.seed == 0 else {}
    trace_dir = os.path.join(root, TRACE_DIR, f"{args.workload}-seed{args.seed}")
    rundir = tempfile.mkdtemp(prefix=".perfbench-run-", dir=root)
    try:
        setup_s = measure_setup(rundir, env, budget)
        began = time.monotonic()
        passes = [run_pass(plan, rundir, env, budget)]
        if args.trace:
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            passes.append(run_pass(plan, rundir, env, budget, trace_dir))
        else:
            while not passes[-1].problems:
                typical = statistics.median(p.wall_s for p in passes)
                if time.monotonic() - began + typical > args.seconds:
                    break
                passes.append(run_pass(plan, rundir, env, budget))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    problems = [p for ps in passes for p in ps.problems]
    for ps in passes:
        if ps.digests != passes[0].digests:
            ps.failed = ps.attempted
            problems.append("outputs differ between passes of the same inputs")
        mismatched = sorted(k for k, v in golden.items() if ps.digests.get(k) != v)
        if mismatched:
            ps.failed = ps.attempted
            problems.append(f"seed-0 digests differ for {mismatched}")

    if args.trace:
        traces = [os.path.join(trace_dir, job.label + ".json") for job in plan.jobs]
        missing = [path for path in traces if not os.path.isfile(path)]
        if missing:
            problems.append(f"traced processes wrote no trace: {missing}")
        merged = merge_traces([path for path in traces if path not in missing])
        metrics = layer_metrics(merged, passes[1].wall_s / passes[0].wall_s)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "items_per_s": {"value": statistics.median(p.attempted / p.wall_s for p in passes),
                            "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes),
                            "unit": "MB"},
        }
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    failed = sum(ps.failed for ps in passes)
    result = {"correct": failed == 0 and not problems,
              "attempted": sum(ps.attempted for ps in passes), "failed": failed,
              "metrics": metrics}
    return result, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # When terminated, still stop and reap the current child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pcmix", "__init__.py")):
        print("no pcmix sources under ./src: run from the root of a pcmix checkout",
              file=sys.stderr)
        return 2

    result, passes = run(args, root)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"machine={platform.machine()} nproc={os.cpu_count()} "
          f"python={platform.python_version()}")
    for ps in passes:
        print(f"# pass wall_s {ps.wall_s} cpu_s {ps.cpu_s} peak_rss_mb {ps.peak_rss_mb}")
    for label, digest in passes[0].digests.items():
        print(f"# sha256 {label} {digest}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
