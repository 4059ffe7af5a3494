"""One benchmark run in a fresh process: set-up, then the timed closed loop.

    worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

The parent (run.py) starts this with BLAS/OpenMP threads pinned to 1 and
``src`` on the path, waits for it, and reads its peak RSS. Results go to
``WORKDIR/result.json``; the config and stage output of graph i go to
``WORKDIR/graph<i>/``.

With TRACE=1 the loop runs the first graph only and alternates untraced
and traced passes, so the tracing overhead is measured in the same run,
and the spans of the traced passes are written to ``WORKDIR/spans.jsonl``
at the end.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy  # noqa: E402
import scipy  # noqa: E402

from checks import Checks, artifact_digest, check_stage, load_edges  # noqa: E402
from metrics import stage_self_residual_ms, summarize_spans  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (SETUP_FIRST_S, SETUP_PASS_S,  # noqa: E402
                       WORKLOADS, stage_metric)

from nbrattack import cli  # noqa: E402

# A traced run needs at least one untraced and one traced pass.
MIN_PASSES = {False: 1, True: 2}


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def read_effective_config(out_dir: str) -> dict:
    """The config the program wrote next to its outputs, typed loosely."""
    cfg = {}
    with open(os.path.join(out_dir, "config.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, raw = (s.strip() for s in line.split("=", 1))
            if raw in ("true", "false"):
                cfg[key] = raw == "true"
                continue
            for cast in (int, float):
                try:
                    cfg[key] = cast(raw)
                    break
                except ValueError:
                    continue
            else:
                cfg[key] = raw
    return cfg


class Pipeline:
    """Runs stages through cli.main and checks what each one wrote."""

    def __init__(self, config_path: str, out_dir: str, log, checks: Checks):
        self.config_path = config_path
        self.out_dir = out_dir
        self.log = log
        self.checks = checks
        self.digests: dict[str, str] = {}
        self.graph = None
        self.cfg = None

    def run_stage(self, stage: str, tracer: Tracer | None = None) -> float:
        argv = [stage, "-c", self.config_path, "-o", self.out_dir]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call(f"cli.{stage}", cli.main, argv)
            except Exception:  # a crash is a failed operation
                traceback.print_exc()
                rc = -1
        elapsed = time.perf_counter() - start
        self.log.write(buf.getvalue())
        if self.checks.check(rc == 0, f"{stage} exited {rc}"):
            self._check_outputs(stage)
        return elapsed

    def _check_outputs(self, stage: str) -> None:
        try:
            if stage == "gen-sbm" or self.graph is None:
                self.graph = load_edges(self.out_dir)
                self.cfg = read_effective_config(self.out_dir)
            check_stage(self.checks, stage, self.out_dir, self.cfg, self.graph)
            digest = artifact_digest(self.out_dir, stage)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.checks.check(False, f"{stage} outputs unreadable: {exc!r}")
            return
        first = self.digests.setdefault(stage, digest)
        self.checks.check(digest == first,
                          f"{stage} outputs differ between runs of one config")


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workload = WORKLOADS[name]
    # Per-layer counts must repeat exactly between traced passes, so a
    # traced run uses the workload's first graph only.
    count = 1 if trace else workload.graphs
    checks = Checks()

    with open(os.path.join(workdir, "stages.log"), "w", encoding="utf-8") as log:
        pipes = []
        for i in range(count):
            graph_dir = os.path.join(workdir, f"graph{i}")
            os.makedirs(graph_dir)
            config_path = os.path.join(graph_dir, "config.txt")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(workload.config_text(workload.graph_seed(seed, i)))
            pipes.append(Pipeline(config_path, os.path.join(graph_dir, "out"),
                                  log, checks))
        setup_s = []

        def set_up(first: int, min_s: float) -> None:
            # Set graphs up in turn: at least `first` times and until
            # min_s seconds have gone into it.
            spent = 0.0
            while first > 0 or spent < min_s:
                pipe = pipes[len(setup_s) % count]
                setup_s.append(sum(pipe.run_stage(s) for s in workload.setup))
                spent += setup_s[-1]
                first -= 1

        set_up(count, SETUP_FIRST_S)
        tracer = Tracer() if trace else None
        passes = []  # (traced, {stage: seconds summed over the graphs})
        measured = 0.0

        def window_open() -> bool:
            # Stop at the pass boundary nearest to the end of the window.
            return measured + measured / len(passes) / 2 < seconds

        while len(passes) < MIN_PASSES[trace] or window_open():
            if passes:
                # Set-up samples spread over the run, so that one phase of
                # a shared host does not set the set-up figure.
                set_up(1, SETUP_PASS_S)
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.run = len(passes)
                tracer.install()
            times = dict.fromkeys(workload.timed, 0.0)
            try:
                for pipe in pipes:
                    for stage in workload.timed:
                        times[stage] += pipe.run_stage(
                            stage, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            measured += sum(times.values())
            passes.append((traced, times))

    # Every pass runs each graph once, so a pass's time over the graph
    # count is one graph's share; the mean over passes is total timed
    # time over work done, which tracks the host's contended share
    # linearly where a median of a few long passes jumps between modes.
    untraced = [t for traced, t in passes if not traced]
    walls = [sum(t.values()) / count for t in untraced]
    if not trace:
        metrics = {"setup_s": statistics.median(setup_s),
                   "wall_s": statistics.fmean(walls)}
        for stage in workload.timed:
            metrics[stage_metric(stage)] = statistics.fmean(
                t[stage] / count for t in untraced)
        samples = {"setup_s": len(setup_s), "passes": len(walls),
                   "graphs": count}
    else:
        traced_walls = [sum(t.values()) for traced, t in passes if traced]
        metrics, per_run = summarize_spans(tracer.spans, tracer.present,
                                           tracer.cache_slots)
        counts = list(per_run.values())
        checks.check(all(c == counts[0] for c in counts),
                     "call counts differ between traced passes")
        residual = stage_self_residual_ms(tracer.spans)
        checks.check(residual < 1e-3, "stage self times miss the "
                     f"stage's traced wall by {residual} ms")
        metrics["bench.traced_wall_s"] = statistics.fmean(traced_walls)
        metrics["bench.untraced_wall_s"] = statistics.fmean(walls)
        metrics["bench.trace_overhead_x"] = (metrics["bench.traced_wall_s"]
                                             / metrics["bench.untraced_wall_s"])
        samples = {"traced": len(traced_walls), "untraced": len(walls),
                   "self_sum_residual_ms": residual}
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "metrics": metrics, "samples": samples,
        "graph_seeds": [workload.graph_seed(seed, i) for i in range(count)],
        "setup_samples_s": setup_s,
        "passes": [{"traced": tr, "stages_s": t} for tr, t in passes],
        "attempted": checks.attempted, "failed": checks.failed,
        "problems": checks.problems,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
