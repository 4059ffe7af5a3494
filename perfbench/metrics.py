"""Metric names, units and directions, and the per-layer summary of spans.

End-to-end metrics come from untraced passes. Per-layer metrics are
named ``<module>.<function>.<stat>`` and come from traced passes:

- ``calls`` and the work counts (``builds``, ``candidates``, ``pairs``)
  are taken from one traced pass; every traced pass runs the
  same seeded work, so they repeat exactly (checked by the worker).
- ``self_ms`` is the median over traced passes of the function's
  summed self time in one pass.
- ``p50_ms``/``p90_ms`` are percentiles of single-call durations,
  pooled over traced passes.
- ``hit_ratio`` is 1 - builds/calls for a per-graph cache; its bases
  are the ``calls`` and ``builds`` metrics next to it.

A function that is not present in the program is reported as absent.
"""
from __future__ import annotations

import statistics

from tracer import END, ITEMS, LAYERS, NAME, RUN, START, roots, self_times
from workloads import STAGES

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per function: the stats reported for it. Items count under the stat
# name given here (builds for cache methods, otherwise a result length).
FUNCTION_STATS = (
    ("graphs.apply_edit", ("calls", "self_ms")),
    ("graphs.normalized_adjacency",
     ("calls", "builds", "hit_ratio", "self_ms", "builds_per_step")),
    ("graphs.adjacency", ("calls", "builds", "hit_ratio", "self_ms")),
    ("graphs.candidate_edits", ("calls", "candidates", "self_ms")),
    ("graphs.k_hop_neighborhood", ("calls", "self_ms")),
    ("graphs.graph_distance", ("calls", "self_ms")),
    ("graphs.neighborhood_distortion", ("calls", "self_ms")),
    ("embed.sample_positive_walks", ("calls", "pairs", "self_ms")),
    ("embed.unsup_loss", ("calls", "self_ms")),
    ("embed.train_embedding", ("self_ms",)),
    ("embed.embedding_forward", ("calls", "p50_ms", "self_ms")),
    ("embed.gin_forward", ("calls", "self_ms")),
    ("distortion.embedding_distortion", ("calls", "self_ms")),
    ("distortion.mean_l2_to_set", ("calls", "self_ms")),
    ("dqn.train_dqn", ("self_ms",)),
    ("dqn.step_reward", ("calls", "self_ms")),
    ("dqn.infer_attack", ("calls", "p50_ms", "p90_ms", "self_ms")),
    ("oracles.greedy_attack", ("calls", "p50_ms", "self_ms")),
    ("victims.train_victim", ("self_ms",)),
    ("victims.victim_forward", ("calls", "self_ms")),
    ("victims.run_benchmark", ("self_ms",)),
    ("analysis.reverse_knn_ranks", ("self_ms",)),
    ("analysis.correlation_study", ("self_ms",)),
    ("sbm.generate_sbm", ("calls", "self_ms")),
)

_UNITS = {"calls": ("count", "lower"), "builds": ("count", "lower"),
          "candidates": ("count", "lower"), "pairs": ("count", "lower"),
          "hit_ratio": ("ratio", "higher"), "self_ms": ("ms", "lower"),
          "p50_ms": ("ms", "lower"), "p90_ms": ("ms", "lower"),
          "builds_per_step": ("ratio", "lower")}

EXTRA_PER_LAYER = (
    # DQN environment steps: training steps (one step_reward each) plus
    # edits committed by inference; the base of builds_per_step.
    ("dqn.env_steps", "count", "lower"),
    # Greedy over learned inference, both timed in the oracle stage at the
    # oracle budget, with both bases.
    ("oracles.greedy_over_learned_x", "x", "higher"),
    ("oracles.greedy_p50_ms", "ms", "lower"),
    ("oracles.learned_p50_ms", "ms", "lower"),
    # Tracing overhead: traced over untraced wall time, with both bases.
    ("bench.trace_overhead_x", "x", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    spec = []
    for fn, stats in FUNCTION_STATS:
        spec.extend((f"{fn}.{stat}", *_UNITS[stat]) for stat in stats)
    spec.extend((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS)
    spec.extend((f"cli.{stage}.self_ms", "ms", "lower") for stage in STAGES)
    spec.extend(EXTRA_PER_LAYER)
    return spec


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def summarize_spans(spans, present: set[str], cache_slots: set[str]
                    ) -> tuple[dict, dict]:
    """Per-layer values from traced passes.

    Returns (values, per_run_counts); per_run_counts maps each run to its
    call and item counts so the caller can check they repeat exactly.
    """
    own = self_times(spans)
    root = roots(spans)
    runs = sorted({rec[RUN] for rec in spans})
    counts = {r: {} for r in runs}  # run -> name -> [calls, items]
    self_ms = {r: {} for r in runs}  # run -> name -> ms
    durations: dict[str, list[float]] = {}
    oracle_stage = {"oracles.greedy_attack": [], "dqn.infer_attack": []}
    for i, rec in enumerate(spans):
        name, run = rec[NAME], rec[RUN]
        c = counts[run].setdefault(name, [0, 0])
        c[0] += 1
        c[1] += rec[ITEMS]
        self_ms[run][name] = self_ms[run].get(name, 0.0) + own[i] * 1e3
        dur_ms = (rec[END] - rec[START]) * 1e3
        durations.setdefault(name, []).append(dur_ms)
        if name in oracle_stage and spans[root[i]][NAME] == "cli.oracle":
            oracle_stage[name].append(dur_ms)

    def median_self(names) -> float:
        return statistics.median(
            sum((self_ms[r].get(n, 0.0) for n in names), 0.0) for r in runs
        ) if runs else 0.0

    first = counts[runs[0]] if runs else {}
    values = {}
    for fn, stats in FUNCTION_STATS:
        if fn not in present:
            continue
        calls, items = first.get(fn, [0, 0])
        for stat in stats:
            key = f"{fn}.{stat}"
            if stat == "calls":
                values[key] = calls
            elif stat in ("candidates", "pairs"):
                values[key] = items
            elif stat == "builds":
                if fn in cache_slots:
                    values[key] = items
            elif stat == "hit_ratio":
                if fn in cache_slots:
                    values[key] = 1.0 - items / calls if calls else 0.0
            elif stat == "self_ms":
                values[key] = median_self([fn])
            elif stat == "p50_ms":
                values[key] = _percentile(durations.get(fn, []), 50)
            elif stat == "p90_ms":
                values[key] = _percentile(durations.get(fn, []), 90)
    names = {rec_name for run in counts.values() for rec_name in run}
    for layer in LAYERS:
        if any(n.startswith(layer + ".") for n in present):
            values[f"{layer}.self_ms"] = median_self(
                [n for n in names if n.startswith(layer + ".")])
    for stage in STAGES:
        values[f"cli.{stage}.self_ms"] = median_self([f"cli.{stage}"])

    env_steps = (first.get("dqn.step_reward", [0, 0])[0]
                 + first.get("dqn.infer_attack", [0, 0])[1])
    values["dqn.env_steps"] = env_steps
    if "graphs.normalized_adjacency" in cache_slots:
        builds = first.get("graphs.normalized_adjacency", [0, 0])[1]
        values["graphs.normalized_adjacency.builds_per_step"] = (
            builds / env_steps if env_steps else 0.0)
    greedy = _percentile(oracle_stage["oracles.greedy_attack"], 50)
    learned = _percentile(oracle_stage["dqn.infer_attack"], 50)
    values["oracles.greedy_p50_ms"] = greedy
    values["oracles.learned_p50_ms"] = learned
    values["oracles.greedy_over_learned_x"] = (
        greedy / learned if learned else 0.0)
    values["bench.spans"] = sum(c[0] for c in first.values())
    per_run_counts = {r: {n: tuple(c) for n, c in counts[r].items()}
                      for r in runs}
    return values, per_run_counts


def stage_self_residual_ms(spans) -> float:
    """Largest |sum of self times in a stage - the stage's traced wall|.

    Every span sits under one stage root, so the self times of the
    layers and of ``cli.<stage>`` must add up to the root's duration.
    """
    total = {}
    for r, own in zip(roots(spans), self_times(spans)):
        total[r] = total.get(r, 0.0) + own
    return max((abs(total[r] - (spans[r][END] - spans[r][START])) * 1e3
                for r in total), default=0.0)
