#!/usr/bin/env python3
"""The repository benchmark: nbrattack pipeline stages on generated SBMs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each run starts one worker process (worker.py) with BLAS/OpenMP threads
pinned to 1, waits for it, and reads that process's peak RSS, so
``peak_rss_mb`` belongs to this run alone. The worker sets the workload
up several times, then runs its timed stages in a closed loop with one
client, in passes over the run's graphs, until ``--seconds`` have passed
(see workloads.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced run (see metrics.py). Both check the
program's outputs (see checks.py). Human-readable lines come first; the
last line of standard output is the JSON result. Work files go to
``.perfbench_out/`` at the root of the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from metrics import END_TO_END, per_layer_spec  # noqa: E402
from workloads import WORKLOADS, stage_metric  # noqa: E402

# The whole run, set-up included, must end well inside three minutes.
RUN_DEADLINE_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, workdir: str, deadline: float) -> int:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           args.workload, str(args.seed), repr(args.seconds),
           str(args.trace), workdir]
    with open(os.path.join(workdir, "worker.log"), "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("perfbench: worker ran past the deadline", file=sys.stderr)
            return -1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nbrattack", "cli.py")):
        print(f"perfbench: no program source under {ROOT}/src",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    rc = run_worker(args, workdir, deadline)
    result_path = os.path.join(workdir, "result.json")
    if rc != 0 or not os.path.isfile(result_path):
        with open(os.path.join(workdir, "worker.log")) as log:
            sys.stderr.write(log.read()[-4000:])
        print(f"perfbench: worker exited {rc} without a result",
              file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    values = result["metrics"]
    if args.trace:
        spec, shown, notes = per_layer_spec(), [], {}
    else:
        # ru_maxrss is in KiB on Linux; the worker is this run's only child.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values["peak_rss_mb"] = peak_kib / 1024.0
        spec = [(name, unit, better) for name, unit, better, _ in END_TO_END]
        # Stage times are printed for the workload's own stages but left
        # out of the JSON result, which carries only the metrics that
        # every workload has.
        shown = [(stage_metric(s), "s", "lower")
                 for s in WORKLOADS[args.workload].timed]
        samples = result["samples"]
        notes = {"setup_s": f"median of {samples['setup_s']} set-ups",
                 "wall_s": f"mean of {samples['passes']} passes over "
                           f"{samples['graphs']} graphs, per graph"}

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print("samples: " + json.dumps(result["samples"], sort_keys=True))
    absent = [name for name, _, _ in spec if name not in values]
    if absent:
        print("absent: " + " ".join(absent))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, unit, _ in spec + shown:
        if name in values:
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {values[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec if name in values},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
