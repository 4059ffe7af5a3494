"""Command-line pipeline: gen-sbm, train-embed, train-attack, attack,
evaluate, analyze, oracle.

Configuration is a flat key=value file plus --set overrides; every run
writes the effective config next to its outputs so it can be re-parsed
into the identical run. All randomness flows from one root seed that is
split per stage, so stages re-run independently and deterministically.
Wall-clock measurements go to separate *_timings files; everything else
is byte-reproducible for a fixed config.

Exit codes: 0 success, 2 usage, 3 data error, 4 training divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import io as fileio
from .analysis import (COMMUNITY_METRICS, NODE_PROPERTIES, TargetCandidates,
                       community_metric, correlation_study,
                       embedding_community)
from .distortion import (flip_base, flip_distortions, flip_tables,
                         graph_pair_distortion)
from .dqn import (AttackEpisodeConfig, infer_attack, load_attacker,
                  save_attacker, train_dqn)
from .embed import (EmbedConfig, WalkConfig, load_embed_model,
                    save_embed_model, save_embedding, train_embedding)
from .errors import (DataError, NoCandidatesError, SamplingError,
                     SizeCapError, TrainingError)
from .graphs import (Graph, apply_edit, apply_edits, graph_distance,
                     k_hop_neighborhood, largest_connected_component,
                     neighborhood_distortion)
from .numerics import stage_seed
from .oracles import (BRUTE_FORCE_CAP, brute_force_max_distortion,
                      degree_attack, greedy_attack, random_attack)
from .sbm import generate_sbm
from .victims import (AttackReport, SplitSpec, VictimBundle, VictimConfig,
                      make_split, run_benchmark, train_victim)

ENV_OUT_DIR = "NBRATTACK_OUT_DIR"


class UsageError(ValueError):
    """Bad invocation or malformed configuration (exit code 2)."""


@dataclass
class RunConfig:
    """Flat configuration; one field per knob, all defaults documented."""

    seed: int = 0
    out_dir: str = "out"
    # dataset: either file paths or SBM generator parameters
    edges_path: str = ""
    features_path: str = ""
    labels_path: str = ""
    use_lcc: bool = False  # restrict loaded graphs to the largest component
    sbm_blocks: str = ""  # comma-separated block sizes, e.g. "50,50"
    sbm_p_in: float = 0.3
    sbm_p_out: float = 0.02
    sbm_feature_noise: float = 0.1
    k_hops: int = 2
    # embedding stage
    embed_backend: str = "gin"
    embed_hidden: int = 16
    embed_layers: int = 2
    embed_epochs: int = 30
    embed_lr: float = 0.01
    walk_length: int = 20
    context_size: int = 10
    walks_per_node: int = 10
    return_p: float = 1.0
    inout_q: float = 1.0
    negatives_per_positive: int = 1
    # attacker training
    dqn_episodes: int = 100
    dqn_steps: int = 10
    dqn_n_step: int = 2
    dqn_gamma: float = 0.99
    dqn_capacity: int = 5000
    dqn_batch: int = 32
    dqn_target_fraction: float = 0.4
    dqn_hidden: int = 16
    dqn_mlp_hidden: int = 16
    dqn_lr: float = 0.01
    dqn_fit_every: int = 1
    # attack / evaluation
    budget: int = 5
    budgets: str = "1,5"
    num_targets: int = 20
    attackers: str = "dqn,random,degree"
    victim_kind: str = "gcn"
    victim_task: str = "nc"
    victim_hidden: int = 16
    victim_out_dim: int = 16
    victim_epochs: int = 200
    victim_patience: int = 30
    victim_lr: float = 0.01
    train_frac: float = 0.1
    val_frac: float = 0.1
    test_frac: float = 0.8
    # oracle comparison
    oracle_budget: int = 2
    oracle_targets: int = 3
    brute_cap: int = BRUTE_FORCE_CAP
    include_brute: bool = True
    greedy_objective: str = "embedding"
    # analysis
    analyze_targets: int = 5
    analyze_knn: int = 100
    analyze_community: bool = False
    analyze_community_size: int = 50
    analyze_exact_p: bool = False
    analyze_corrected_ncs: bool = False


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, raw: str):
    f = _FIELDS[name]
    raw = raw.strip()
    if f.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"config key {name}: expected integer, got {raw!r}")
    if f.type in ("float", float):
        try:
            return float(raw)
        except ValueError:
            raise UsageError(f"config key {name}: expected number, got {raw!r}")
    if f.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {name}: expected true/false, got {raw!r}")
    return raw


def parse_config_text(text: str) -> dict:
    """key = value lines; '#' comments; unknown keys rejected."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str | None, overrides: list[str] | None = None,
                out_dir_flag: str | None = None) -> RunConfig:
    """Precedence: defaults < config file < env out-dir < --set < --out-dir."""
    values: dict = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    env_out = os.environ.get(ENV_OUT_DIR)
    if env_out:
        values["out_dir"] = env_out
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    if out_dir_flag:
        values["out_dir"] = out_dir_flag
    return RunConfig(**values)


def emit_config(cfg: RunConfig, path: str) -> None:
    lines = []
    for f in dataclasses.fields(RunConfig):
        val = getattr(cfg, f.name)
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = repr(val)
        else:
            text = str(val)
        lines.append(f"{f.name} = {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _int_list(raw: str, what: str) -> list[int]:
    if not raw.strip():
        return []
    try:
        return [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"{what}: expected comma-separated integers, got {raw!r}")


# -- shared stage helpers -----------------------------------------------------------


def _resolve_graph(cfg: RunConfig) -> Graph:
    if cfg.sbm_blocks.strip():
        sizes = _int_list(cfg.sbm_blocks, "sbm_blocks")
        return generate_sbm(sizes, cfg.sbm_p_in, cfg.sbm_p_out,
                            stage_seed(cfg.seed, "sbm"), cfg.sbm_feature_noise)
    if cfg.edges_path and cfg.features_path:
        g = fileio.load_graph(cfg.edges_path, cfg.features_path,
                              cfg.labels_path or None)
        if cfg.use_lcc:
            g, _ = largest_connected_component(g)
        return g
    raise UsageError("no dataset: set sbm_blocks or edges_path+features_path")


def _embed_config(cfg: RunConfig) -> EmbedConfig:
    return EmbedConfig(
        backend=cfg.embed_backend, hidden_dim=cfg.embed_hidden,
        layer_count=cfg.embed_layers, epochs=cfg.embed_epochs,
        learning_rate=cfg.embed_lr,
        negatives_per_positive=cfg.negatives_per_positive,
        walk=WalkConfig(walk_length=cfg.walk_length,
                        context_size=cfg.context_size,
                        walks_per_node=cfg.walks_per_node,
                        return_p=cfg.return_p, inout_q=cfg.inout_q))


def _attack_config(cfg: RunConfig) -> AttackEpisodeConfig:
    return AttackEpisodeConfig(
        episodes=cfg.dqn_episodes, steps_per_episode=cfg.dqn_steps,
        n_step=cfg.dqn_n_step, gamma=cfg.dqn_gamma,
        replay_capacity=cfg.dqn_capacity, batch_size=cfg.dqn_batch,
        target_fraction=cfg.dqn_target_fraction,
        learning_rate=cfg.dqn_lr, hidden_dim=cfg.dqn_hidden,
        mlp_hidden=cfg.dqn_mlp_hidden, k=cfg.k_hops,
        fit_every=cfg.dqn_fit_every)


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _need(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"missing prerequisite {path}; run `{hint}` first")
    return path


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def _load_attackers(cfg: RunConfig, names) -> dict:
    """Build name -> fn(g, t, budget, seed) for the named attackers; greedy
    loads the embedding model only for the embedding objective."""
    fns = {}
    for name in names:
        if name == "dqn":
            qnet = load_attacker(_need(_out(cfg, "attacker.bin"), "train-attack"))
            fns[name] = lambda gg, t, b, s, q=qnet: infer_attack(q, gg, t, b)
        elif name == "random":
            fns[name] = lambda gg, t, b, s: random_attack(gg, t, b, s)
        elif name == "degree":
            fns[name] = lambda gg, t, b, s: degree_attack(gg, t, b)
        elif name == "greedy":
            model = None
            if cfg.greedy_objective == "embedding":
                model = load_embed_model(
                    _need(_out(cfg, "embed_model.bin"), "train-embed"))
            fns[name] = lambda gg, t, b, s, m=model: greedy_attack(
                gg, t, b, cfg.k_hops, m, cfg.greedy_objective)
        elif name == "none":
            fns[name] = lambda gg, t, b, s: []
        else:
            raise UsageError(f"unknown attacker {name!r}")
    return fns


# -- subcommands -----------------------------------------------------------------------


def cmd_gen_sbm(cfg: RunConfig, args) -> None:
    if not cfg.sbm_blocks.strip():
        raise UsageError("gen-sbm needs sbm_blocks, e.g. --set sbm_blocks=50,50")
    g = _resolve_graph(cfg)
    fileio.save_edge_list(_out(cfg, "edges.tsv"), g)
    fileio.save_features(_out(cfg, "features.txt"), g.features)
    fileio.save_labels(_out(cfg, "labels.txt"), g.labels)
    emit_config(cfg, _out(cfg, "config.txt"))
    print(f"gen-sbm: {g.node_count} nodes, {g.edge_count} edges -> {cfg.out_dir}")


def cmd_train_embed(cfg: RunConfig, args) -> None:
    g = _resolve_graph(cfg)
    result = train_embedding(g, _embed_config(cfg), stage_seed(cfg.seed, "embed"))
    save_embedding(_out(cfg, "embedding.bin"), result.table)
    save_embed_model(_out(cfg, "embed_model.bin"), result.model)
    _write_csv(_out(cfg, "embed_losses.csv"), ["epoch", "loss"],
               [(i, loss) for i, loss in enumerate(result.losses)])
    emit_config(cfg, _out(cfg, "config.txt"))
    print(f"train-embed: {result.table.node_count}x{result.table.dim} "
          f"({result.table.backend}) -> {cfg.out_dir}")


def cmd_train_attack(cfg: RunConfig, args) -> None:
    g = _resolve_graph(cfg)
    model = load_embed_model(_need(_out(cfg, "embed_model.bin"), "train-embed"))
    qnet, rewards = train_dqn(g, model, _attack_config(cfg),
                              stage_seed(cfg.seed, "dqn"))
    save_attacker(_out(cfg, "attacker.bin"), qnet)
    _write_csv(_out(cfg, "episode_rewards.csv"), ["episode", "total_reward"],
               [(i, r) for i, r in enumerate(rewards)])
    emit_config(cfg, _out(cfg, "config.txt"))
    print(f"train-attack: {len(rewards)} episodes -> {cfg.out_dir}")


def cmd_attack(cfg: RunConfig, args) -> None:
    g = _resolve_graph(cfg)
    dqn = _load_attackers(cfg, ["dqn"])["dqn"]
    if getattr(args, "targets", None):
        targets = _int_list(args.targets, "--targets")
        for t in targets:
            if not (0 <= t < g.node_count):
                raise DataError(f"target {t} out of range [0, {g.node_count})")
    else:
        rng = np.random.default_rng(stage_seed(cfg.seed, "attack-targets"))
        take = min(cfg.num_targets, g.node_count)
        targets = sorted(int(t) for t in
                         rng.choice(g.node_count, size=take, replace=False))
    rows = []
    for t in targets:
        edits = dqn(g, t, cfg.budget, None)
        dist = graph_distance(g, apply_edits(g, edits))
        if dist > cfg.budget:
            raise DataError(f"attack on {t} used {dist} edits > budget")
        rows.append({"target": t,
                     "edits": [[e.u, e.v, e.sign] for e in edits],
                     "graph_distance": dist})
    fileio.write_json(_out(cfg, "attack_edits.json"),
                      {"budget": cfg.budget, "targets": rows})
    emit_config(cfg, _out(cfg, "config.txt"))
    print(f"attack: {len(rows)} targets at budget {cfg.budget} -> {cfg.out_dir}")


def cmd_evaluate(cfg: RunConfig, args) -> None:
    g = _resolve_graph(cfg)
    split = make_split(g, cfg.victim_task,
                       SplitSpec(cfg.train_frac, cfg.val_frac, cfg.test_frac),
                       stage_seed(cfg.seed, "split"))
    victim = train_victim(g, cfg.victim_task, split,
                          VictimConfig(kind=cfg.victim_kind,
                                       hidden_dim=cfg.victim_hidden,
                                       out_dim=cfg.victim_out_dim,
                                       epochs=cfg.victim_epochs,
                                       patience=cfg.victim_patience,
                                       learning_rate=cfg.victim_lr),
                          stage_seed(cfg.seed, "victim"))
    bundle = VictimBundle(name=f"{cfg.victim_kind}-{cfg.victim_task}",
                          model=victim, split=split)
    attackers = _load_attackers(
        cfg, [s.strip() for s in cfg.attackers.split(",") if s.strip()])
    budgets = _int_list(cfg.budgets, "budgets") or [cfg.budget]
    report = run_benchmark(g, attackers, [bundle], budgets, cfg.num_targets,
                           cfg.seed, k=cfg.k_hops)
    fileio.write_json(_out(cfg, "report.json"), report.to_json_dict())
    fileio.write_json(_out(cfg, "timings.json"), report.timings)
    _write_csv(_out(cfg, "da_curves.csv"),
               ["victim", "attacker", "budget", "da_percent"],
               [(c["victim"], c["attacker"], c["budget"],
                 "" if c["da_percent"] is None else c["da_percent"])
                for c in report.cells])
    emit_config(cfg, _out(cfg, "config.txt"))
    for c in report.cells:
        da = c["da_percent"]
        shown = "n/a" if da is None else f"{da:.1f}%"
        print(f"evaluate: {c['victim']} vs {c['attacker']} B={c['budget']}: "
              f"acc {c['orig_accuracy']:.3f} -> {c['attacked_accuracy']:.3f} "
              f"(DA {shown})")


def cmd_analyze(cfg: RunConfig, args) -> None:
    g = _resolve_graph(cfg)
    model = load_embed_model(_need(_out(cfg, "embed_model.bin"), "train-embed"))
    base = flip_base(model, g)
    table = base.table
    rng = np.random.default_rng(stage_seed(cfg.seed, "analyze-targets"))
    take = min(cfg.analyze_targets, g.node_count)
    targets = sorted(int(t) for t in
                     rng.choice(g.node_count, size=take, replace=False))
    per_target = []
    for t in targets:
        n_orig = k_hop_neighborhood(g, t, cfg.k_hops)
        others, values = flip_distortions(base, t, cfg.k_hops, n_orig)
        nodes, dists = others.tolist(), values.tolist()
        extra = {}
        if cfg.analyze_community:
            extra = {f"{m}_diff": [] for m in COMMUNITY_METRICS}
            for (edit, z_pert), v in zip(flip_tables(base, t), nodes):
                g_pert = apply_edit(g, edit)
                s_orig = embedding_community(table, v, cfg.analyze_community_size)
                s_pert = embedding_community(z_pert, v, cfg.analyze_community_size)
                for m in COMMUNITY_METRICS:
                    before = community_metric(g, s_orig, m,
                                              cfg.analyze_corrected_ncs)
                    after = community_metric(g_pert, s_pert, m,
                                             cfg.analyze_corrected_ncs)
                    extra[f"{m}_diff"].append(before - after)
        per_target.append(TargetCandidates(target=t, nodes=nodes,
                                           distortions=dists, extra=extra))
    rows = correlation_study(g, per_target, NODE_PROPERTIES, table,
                             cfg.analyze_knn, cfg.analyze_exact_p)
    detail = [{"target": tc.target, "candidates": tc.nodes,
               "distortions": tc.distortions} for tc in per_target]
    fileio.write_json(_out(cfg, "correlations.json"),
                      {"properties": rows, "per_target": detail})
    emit_config(cfg, _out(cfg, "config.txt"))
    for row in rows:
        mean = row["mean_coefficient"]
        shown = "n/a" if mean is None else f"{mean:+.3f}"
        print(f"analyze: {row['property']}: {shown} "
              f"over {row['targets_used']} targets")


def cmd_oracle(cfg: RunConfig, args) -> None:
    import time as _time
    g = _resolve_graph(cfg)
    model_path = _out(cfg, "embed_model.bin")
    model = load_embed_model(model_path) if os.path.exists(model_path) else None
    rng = np.random.default_rng(stage_seed(cfg.seed, "oracle-targets"))
    take = min(cfg.oracle_targets, g.node_count)
    targets = sorted(int(t) for t in
                     rng.choice(g.node_count, size=take, replace=False))
    budget = cfg.oracle_budget
    k = cfg.k_hops
    names = ["greedy", "random", "degree"]
    if os.path.exists(_out(cfg, "attacker.bin")):
        names.append("dqn")
    methods = _load_attackers(cfg, names)
    if cfg.include_brute:
        methods["brute_force"] = lambda gg, t, b, s: list(
            brute_force_max_distortion(gg, t, b, k, cap=cfg.brute_cap)[0])
    rows = []
    timings = {}
    for name in sorted(methods):
        fn = methods[name]
        per_target = []
        total = 0.0
        for t in targets:
            call_seed = stage_seed(cfg.seed, f"oracle:{name}:{t}")
            t0 = _time.perf_counter()
            try:
                edits = fn(g, t, budget, call_seed)
            except SizeCapError as exc:
                per_target.append({"target": t, "skipped": str(exc)})
                continue
            total += _time.perf_counter() - t0
            g_pert = apply_edits(g, edits)
            rec = {"target": t,
                   "edits": [[e.u, e.v, e.sign] for e in edits],
                   "graph_distortion": neighborhood_distortion(g, g_pert, t, k)}
            if model is not None:
                rec["embedding_distortion"] = graph_pair_distortion(
                    model, g, g_pert, t, k).value
            per_target.append(rec)
        done = [r for r in per_target if "skipped" not in r]
        row = {"method": name, "targets": per_target,
               "mean_graph_distortion": float(np.mean(
                   [r["graph_distortion"] for r in done])) if done else None}
        if model is not None and done:
            row["mean_embedding_distortion"] = float(np.mean(
                [r["embedding_distortion"] for r in done]))
        rows.append(row)
        timings[name] = total
    fileio.write_json(_out(cfg, "oracle_comparison.json"),
                      {"budget": budget, "rows": rows})
    fileio.write_json(_out(cfg, "oracle_timings.json"), timings)
    emit_config(cfg, _out(cfg, "config.txt"))
    for row in rows:
        print(f"oracle: {row['method']}: mean graph distortion "
              f"{row['mean_graph_distortion']}")


# -- entry point -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbrattack",
        description="Targeted edge-edit attacks on graph neural networks "
                    "via neighborhood distortion")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", help="key=value config file")
    common.add_argument("-o", "--out-dir", help="output directory override")
    common.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "gen-sbm": cmd_gen_sbm,
        "train-embed": cmd_train_embed,
        "train-attack": cmd_train_attack,
        "attack": cmd_attack,
        "evaluate": cmd_evaluate,
        "analyze": cmd_analyze,
        "oracle": cmd_oracle,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=fn)
        if name == "attack":
            p.add_argument("--targets", help="comma-separated target node ids")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.set, args.out_dir)
        args.func(cfg, args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, NoCandidatesError, SamplingError, SizeCapError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
