"""Correctness checks on the pipeline's output files.

The checks read the files a user would read and judge them with the
benchmark's own code (edge sets from ``edges.tsv``), not with the
program's functions, so a broken graph layer cannot vouch for itself.
Each check is one operation: ``attempted`` counts them and ``failed``
counts those that did not hold.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Output files of each stage that must be byte-identical for a fixed config.
ARTIFACTS = {
    "gen-sbm": ("edges.tsv", "features.txt", "labels.txt"),
    "train-embed": ("embedding.bin", "embed_model.bin", "embed_losses.csv"),
    "train-attack": ("attacker.bin", "episode_rewards.csv"),
    "attack": ("attack_edits.json",),
    "evaluate": ("report.json", "da_curves.csv"),
    "analyze": ("correlations.json",),
    "oracle": ("oracle_comparison.json",),
}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)
        return ok


def _csv_column(out_dir: str, name: str, column: str) -> list[float]:
    with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def _json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_edges(out_dir: str) -> tuple[int, set]:
    with open(os.path.join(out_dir, "labels.txt"), encoding="utf-8") as fh:
        n = sum(1 for line in fh if line.strip())
    edges = set()
    with open(os.path.join(out_dir, "edges.tsv"), encoding="utf-8") as fh:
        for line in fh:
            u, v = map(int, line.split())
            edges.add((min(u, v), max(u, v)))
    return n, edges


def edit_list_problem(n: int, edges: set, target: int, edits,
                      budget: int) -> str | None:
    """Why an edit list is not a valid attack on target, or None."""
    if len(edits) > budget:
        return f"{len(edits)} edits exceed budget {budget}"
    flipped = set()
    for u, v, sign in edits:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return f"bad endpoints ({u}, {v})"
        if target not in (u, v):
            return f"edit ({u}, {v}) does not touch target {target}"
        key = (min(u, v), max(u, v))
        present = (key in edges) != (key in flipped)
        if sign not in ("add", "delete") or (sign == "add") == present:
            return f"{sign} ({u}, {v}) is not valid on the current graph"
        flipped ^= {key}
    return None


def artifact_digest(out_dir: str, stage: str) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS[stage]:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_stage(checks: Checks, stage: str, out_dir: str, cfg: dict,
                graph: tuple[int, set]) -> None:
    """Check the files one stage wrote against its config."""
    n, edges = graph
    if stage == "gen-sbm":
        want = sum(int(s) for s in cfg["sbm_blocks"].split(","))
        checks.check(n == want and len(edges) > 0,
                     f"gen-sbm: {n} nodes, {len(edges)} edges, want {want}")
    elif stage == "train-embed":
        losses = _csv_column(out_dir, "embed_losses.csv", "loss")
        checks.check(len(losses) == cfg["embed_epochs"]
                     and all(math.isfinite(x) for x in losses),
                     f"train-embed: losses {losses}")
    elif stage == "train-attack":
        rewards = _csv_column(out_dir, "episode_rewards.csv", "total_reward")
        checks.check(len(rewards) == cfg["dqn_episodes"]
                     and all(math.isfinite(x) for x in rewards),
                     f"train-attack: episode rewards {rewards}")
    elif stage == "attack":
        doc = _json(out_dir, "attack_edits.json")
        checks.check(len(doc["targets"]) == min(cfg["num_targets"], n),
                     f"attack: {len(doc['targets'])} targets")
        for row in doc["targets"]:
            why = edit_list_problem(n, edges, row["target"], row["edits"],
                                    cfg["budget"])
            checks.check(why is None, f"attack target {row['target']}: {why}")
    elif stage == "evaluate":
        doc = _json(out_dir, "report.json")
        cells = {(c["attacker"], c["budget"]): c for c in doc["cells"]}
        for att in cfg["attackers"].split(","):
            for budget in map(int, cfg["budgets"].split(",")):
                cell = cells.get((att, budget))
                checks.check(cell is not None
                             and cell["da_percent"] is not None
                             and math.isfinite(cell["da_percent"]),
                             f"evaluate: no DA% cell for {att} B={budget}")
        for c in doc["cells"]:
            for row in c["targets"]:
                why = edit_list_problem(n, edges, row["attacked_node"],
                                        row["edits"], c["budget"])
                checks.check(why is None, f"evaluate {c['attacker']} "
                             f"B={c['budget']} target {row['attacked_node']}: {why}")
    elif stage == "analyze":
        doc = _json(out_dir, "correlations.json")
        checks.check(len(doc["per_target"]) == min(cfg["analyze_targets"], n),
                     f"analyze: {len(doc['per_target'])} targets")
        for row in doc["per_target"]:
            d = row["distortions"]
            checks.check(len(d) == n - 1 and all(math.isfinite(x) for x in d),
                         f"analyze target {row['target']}: {len(d)} "
                         f"distortions for {n - 1} candidates")
    elif stage == "oracle":
        doc = _json(out_dir, "oracle_comparison.json")
        methods = {row["method"] for row in doc["rows"]}
        want = {"degree", "dqn", "greedy", "random"}
        if cfg["include_brute"]:
            want.add("brute_force")
        checks.check(methods == want, f"oracle: methods {sorted(methods)}")
        for row in doc["rows"]:
            for rec in row["targets"]:
                why = ("skipped: " + rec["skipped"] if "skipped" in rec else
                       edit_list_problem(n, edges, rec["target"], rec["edits"],
                                         cfg["oracle_budget"]))
                checks.check(why is None, f"oracle {row['method']} "
                             f"target {rec['target']}: {why}")
