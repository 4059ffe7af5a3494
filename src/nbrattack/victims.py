"""Victim models and the attack benchmark harness.

Victims are small 2-layer message-passing networks over node features:
a GCN (symmetric-normalized propagation, run by the stacked-GCN pass in
``numerics`` that the Q-network and the GCN embedding share) and a
mean-aggregator (self weights + mean-of-neighbors weights per layer,
with its own pass). Three tasks:

  nc   node classification, softmax over classes
  lp   link prediction, sigmoid(z_u . z_v) on node pairs
  pnc  pairwise node classification (same class?), same decoder as lp

Evaluation is evasion-style: the trained parameters stay fixed and only
the input graph is perturbed. The benchmark applies each attacker's
edits per target at each budget to a fresh copy of the graph, checks
the edit count against the budget, and aggregates 0/1 correctness into
accuracies and the drop-in-accuracy percentage

    DA% = (orig_acc - attacked_acc) / orig_acc * 100.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, TrainingError
from .graphs import Graph, apply_edits, graph_distance, neighborhood_distortion
from .numerics import (Adam, gcn_backward, gcn_forward, neg_log_sigmoid, relu,
                       rng_from_seed, sigmoid, softmax_rows, stage_seed,
                       xavier_uniform)

TASKS = ("nc", "lp", "pnc")
KINDS = ("gcn", "mean-aggregator")


@dataclass
class SplitSpec:
    train_frac: float = 0.1
    val_frac: float = 0.1
    test_frac: float = 0.8

    def validate(self):
        fr = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fr) or sum(fr) > 1.0 + 1e-9:
            raise DataError(f"bad split fractions {fr}")


@dataclass
class Split:
    task: str
    train: np.ndarray  # nc: node ids; lp/pnc: rows (u, v, label)
    val: np.ndarray
    test: np.ndarray


@dataclass
class VictimConfig:
    kind: str = "gcn"
    hidden_dim: int = 16
    out_dim: int = 16  # embedding width for lp/pnc decoders
    epochs: int = 200
    patience: int = 30
    learning_rate: float = 0.01


@dataclass
class VictimModel:
    kind: str
    task: str
    params: dict[str, np.ndarray]
    out_dim: int
    trained: bool = False

    def param_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(self.params[k]).tobytes()
                        for k in sorted(self.params))


# -- splits ------------------------------------------------------------------------


def _sample_non_edges(g: Graph, count: int, rng: np.random.Generator,
                      forbidden: set) -> list[tuple[int, int]]:
    n = g.node_count
    out = []
    seen = set(forbidden)
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 200 * max(count, 1) + 10000:
            raise DataError("could not sample enough non-edges; graph too dense")
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or g.has_edge(u, v):
            continue
        seen.add(key)
        out.append(key)
    return out


def make_split(g: Graph, task: str, spec: SplitSpec, seed: int) -> Split:
    """Sample train/val/test supervision from the ORIGINAL graph.

    nc: disjoint node sets. lp: positive = held edges, negative =
    sampled non-edges, equal counts per part. pnc: same-class vs
    different-class node pairs, equal counts per part, sized off the
    edge count so lp/pnc are comparable.
    """
    spec.validate()
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    rng = rng_from_seed(seed)
    if task == "nc":
        if g.labels is None:
            raise DataError("node classification needs labels")
        perm = rng.permutation(g.node_count)
        n_tr = max(1, int(round(spec.train_frac * g.node_count)))
        n_va = max(1, int(round(spec.val_frac * g.node_count)))
        n_te = max(1, int(round(spec.test_frac * g.node_count)))
        if n_tr + n_va + n_te > g.node_count:
            n_te = g.node_count - n_tr - n_va
            if n_te < 1:
                raise DataError("graph too small for the requested split")
        return Split(task=task,
                     train=np.sort(perm[:n_tr]),
                     val=np.sort(perm[n_tr:n_tr + n_va]),
                     test=np.sort(perm[n_tr + n_va:n_tr + n_va + n_te]))

    base = g.edge_count
    if base < 10:
        raise DataError(f"only {base} edges; too few for pair tasks")
    counts = [max(1, int(round(f * base)))
              for f in (spec.train_frac, spec.val_frac, spec.test_frac)]

    if task == "lp":
        edges = list(g.edges())
        if sum(counts) > len(edges):
            raise DataError("split fractions demand more positives than edges")
        order = rng.permutation(len(edges))
        parts = []
        used: set = set()
        offset = 0
        for c in counts:
            pos = [edges[i] for i in order[offset:offset + c]]
            offset += c
            neg = _sample_non_edges(g, c, rng, used)
            rows = ([(u, v, 1) for u, v in pos] + [(u, v, 0) for u, v in neg])
            parts.append(np.asarray(rows, dtype=np.int64))
        return Split(task=task, train=parts[0], val=parts[1], test=parts[2])

    # pnc
    if g.labels is None:
        raise DataError("pairwise node classification needs labels")
    labels = g.labels
    parts = []
    seen_pairs: set = set()
    for c in counts:
        same, diff = [], []
        tries = 0
        while len(same) < c or len(diff) < c:
            tries += 1
            if tries > 2000 * (c + 1) + 20000:
                raise DataError("could not sample balanced same/diff pairs")
            u = int(rng.integers(g.node_count))
            v = int(rng.integers(g.node_count))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen_pairs:
                continue
            if labels[u] == labels[v] and len(same) < c:
                seen_pairs.add(key)
                same.append((key[0], key[1], 1))
            elif labels[u] != labels[v] and len(diff) < c:
                seen_pairs.add(key)
                diff.append((key[0], key[1], 0))
        parts.append(np.asarray(same + diff, dtype=np.int64))
    return Split(task=task, train=parts[0], val=parts[1], test=parts[2])


# -- forward / backward ---------------------------------------------------------------


def _row_normalized_adjacency(g: Graph):
    """D^-1 A with zero rows for isolated nodes: row i's entries are 1/deg(i).

    Each row lists its columns in descending order. ``m @ x`` adds a row's
    terms in index order, so another order changes results in the last bits.
    """
    a = g.adjacency()
    deg = np.diff(a.indptr)
    scale = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)
    mirror = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, deg) - np.arange(a.nnz)
    return sp.csr_matrix((np.repeat(scale, deg), a.indices[mirror], a.indptr),
                         shape=a.shape)


def _init_params(kind: str, feature_dim: int, hidden: int, out_dim: int,
                 rng: np.random.Generator) -> dict[str, np.ndarray]:
    if kind == "gcn":
        return {"w1": xavier_uniform(rng, feature_dim, hidden),
                "b1": np.zeros(hidden),
                "w2": xavier_uniform(rng, hidden, out_dim),
                "b2": np.zeros(out_dim)}
    if kind == "mean-aggregator":
        return {"ws1": xavier_uniform(rng, feature_dim, hidden),
                "wn1": xavier_uniform(rng, feature_dim, hidden),
                "b1": np.zeros(hidden),
                "ws2": xavier_uniform(rng, hidden, out_dim),
                "wn2": xavier_uniform(rng, hidden, out_dim),
                "b2": np.zeros(out_dim)}
    raise DataError(f"unknown victim kind {kind!r}")


def victim_forward(model_kind: str, params: dict, g: Graph):
    """Returns (output rows, cache) — logits (nc) or node embeddings."""
    if model_kind == "gcn":
        return gcn_forward(g.normalized_adjacency(), g.features,
                           [params["w1"], params["w2"]],
                           [params["b1"], params["b2"]])
    if model_kind == "mean-aggregator":
        x = g.features
        m = _row_normalized_adjacency(g)
        mx = m @ x
        lin1 = x @ params["ws1"] + mx @ params["wn1"] + params["b1"]
        h1 = relu(lin1)
        mh = m @ h1
        out = h1 @ params["ws2"] + mh @ params["wn2"] + params["b2"]
        return out, {"lin1": lin1, "h1": h1, "mx": mx, "mh": mh, "m": m}
    raise DataError(f"unknown victim kind {model_kind!r}")


def _victim_backward(model_kind: str, params: dict, g: Graph, cache,
                     dout: np.ndarray) -> dict[str, np.ndarray]:
    if model_kind == "gcn":
        (dw1, dw2), (db1, db2) = gcn_backward(
            g.normalized_adjacency(), [params["w1"], params["w2"]], cache, dout)
        return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
    grads = {"b2": dout.sum(axis=0),
             "ws2": cache["h1"].T @ dout,
             "wn2": cache["mh"].T @ dout}
    dh1 = dout @ params["ws2"].T + cache["m"].T @ (dout @ params["wn2"].T)
    dlin1 = dh1 * (cache["lin1"] > 0)
    grads["b1"] = dlin1.sum(axis=0)
    grads["ws1"] = g.features.T @ dlin1
    grads["wn1"] = cache["mx"].T @ dlin1
    return grads


def _task_loss(task: str, out: np.ndarray, rows, labels) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(out) for one supervision part."""
    dout = np.zeros_like(out)
    if task == "nc":
        nodes = rows
        probs = softmax_rows(out[nodes])
        picked = probs[np.arange(len(nodes)), labels[nodes]]
        loss = float(-np.mean(np.log(np.maximum(picked, 1e-12))))
        dlocal = probs.copy()
        dlocal[np.arange(len(nodes)), labels[nodes]] -= 1.0
        dout[nodes] = dlocal / len(nodes)
        return loss, dout
    u, v, y = rows[:, 0], rows[:, 1], rows[:, 2].astype(np.float64)
    s = np.einsum("ij,ij->i", out[u], out[v])
    loss = float(np.mean(np.where(y > 0.5, neg_log_sigmoid(s), neg_log_sigmoid(-s))))
    ds = (sigmoid(s) - y) / len(s)
    np.add.at(dout, u, ds[:, None] * out[v])
    np.add.at(dout, v, ds[:, None] * out[u])
    return loss, dout


def _task_correct(task: str, out: np.ndarray, rows, labels) -> np.ndarray:
    if task == "nc":
        return np.argmax(out[rows], axis=1) == labels[rows]
    u, v, y = rows[:, 0], rows[:, 1], rows[:, 2]
    s = np.einsum("ij,ij->i", out[u], out[v])
    return (sigmoid(s) >= 0.5) == (y == 1)


def train_victim(g: Graph, task: str, split: Split, cfg: VictimConfig,
                 seed: int) -> VictimModel:
    """Full-batch Adam with early stopping on validation accuracy."""
    if task not in TASKS:
        raise DataError(f"unknown task {task!r}")
    if task in ("nc", "pnc") and g.labels is None:
        raise DataError(f"task {task} needs labels")
    rng = rng_from_seed(seed)
    if task == "nc":
        out_dim = int(g.labels.max()) + 1
    else:
        out_dim = cfg.out_dim
    params = _init_params(cfg.kind, g.feature_dim, cfg.hidden_dim, out_dim, rng)
    opt = Adam(lr=cfg.learning_rate)
    best = {k: v.copy() for k, v in params.items()}
    best_acc = -1.0
    stale = 0
    for _ in range(cfg.epochs):
        out, cache = victim_forward(cfg.kind, params, g)
        loss, dout = _task_loss(task, out, split.train, g.labels)
        if not np.isfinite(loss):
            raise TrainingError(f"victim loss diverged ({loss})")
        grads = _victim_backward(cfg.kind, params, g, cache, dout)
        params = opt.step(params, grads)
        val_out, _ = victim_forward(cfg.kind, params, g)
        val_acc = float(np.mean(_task_correct(task, val_out, split.val, g.labels)))
        if val_acc > best_acc:
            best_acc = val_acc
            best = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return VictimModel(kind=cfg.kind, task=task, params=best,
                       out_dim=out_dim, trained=True)


def evaluate_batch(model: VictimModel, g: Graph, items) -> np.ndarray:
    if not model.trained:
        raise DataError("victim model is not trained")
    out, _ = victim_forward(model.kind, model.params, g)
    return _task_correct(model.task, out, items, g.labels)


def evaluate_target(model: VictimModel, g: Graph, item) -> bool:
    if model.task == "nc":
        rows = np.asarray([item], dtype=np.int64)
    else:
        rows = np.asarray([item], dtype=np.int64).reshape(1, 3)
    return bool(evaluate_batch(model, g, rows)[0])


def drop_in_accuracy(orig: float, attacked: float) -> float:
    if orig <= 0:
        raise DataError(f"original accuracy must be positive, got {orig}")
    return (orig - attacked) / orig * 100.0


# -- benchmark --------------------------------------------------------------------------


@dataclass
class VictimBundle:
    name: str
    model: VictimModel
    split: Split


@dataclass
class AttackReport:
    metadata: dict
    cells: list[dict] = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"metadata": self.metadata, "cells": self.cells}


def _attack_target_for(item, task: str, rng: np.random.Generator) -> int:
    """nc items are the target; pair tasks attack a random end node."""
    if task == "nc":
        return int(item)
    return int(item[0] if rng.random() < 0.5 else item[1])


def run_benchmark(g: Graph, attackers: dict, victims: list[VictimBundle],
                  budgets, num_targets: int, seed: int,
                  targets=None, k: int = 2) -> AttackReport:
    """Evaluate every (attacker, victim, budget) cell on a shared
    per-victim target sample. Attackers map (g, t, budget, seed) to an
    edit list. One target sample per victim per run; the same sample is
    reused across budgets and attackers."""
    report = AttackReport(metadata={
        "seed": seed, "budgets": [int(b) for b in budgets],
        "num_targets": int(num_targets),
        "node_count": g.node_count, "edge_count": g.edge_count,
        "attackers": sorted(attackers), "victims": [vb.name for vb in victims],
    })
    for vb in victims:
        model, split = vb.model, vb.split
        test_items = split.test
        frozen = model.param_bytes()
        sample_rng = rng_from_seed(stage_seed(seed, f"targets:{vb.name}"))
        if targets is not None:
            rows = []
            if model.task == "nc":
                wanted = set(int(t) for t in targets)
                present = set(int(x) for x in test_items)
                for t in sorted(wanted):
                    if t in present:
                        rows.append(t)
                    else:
                        warnings.warn(f"target {t} not in test split; skipped")
                items = np.asarray(rows, dtype=np.int64)
            else:
                raise DataError("explicit targets are only supported for nc")
        else:
            take = min(int(num_targets), len(test_items))
            idx = np.sort(sample_rng.choice(len(test_items), size=take,
                                            replace=False))
            items = test_items[idx]
        if len(items) == 0:
            warnings.warn(f"victim {vb.name}: no evaluable targets")
            continue
        end_rng = rng_from_seed(stage_seed(seed, f"endnodes:{vb.name}"))
        attack_nodes = [_attack_target_for(it, model.task, end_rng)
                        for it in items]
        orig_correct = evaluate_batch(model, g, items)
        orig_acc = float(np.mean(orig_correct))
        for att_name in sorted(attackers):
            attack_fn = attackers[att_name]
            for budget in budgets:
                budget = int(budget)
                cell_t0 = time.perf_counter()
                correct = []
                detail = []
                for item, t in zip(items, attack_nodes):
                    call_seed = stage_seed(
                        seed, f"attack:{vb.name}:{att_name}:{budget}:{t}")
                    edits = list(attack_fn(g, int(t), budget, call_seed))
                    g_pert = apply_edits(g, edits)
                    dist = graph_distance(g, g_pert)
                    if dist > budget:
                        raise DataError(
                            f"attacker {att_name} used {dist} > budget {budget}")
                    ok = evaluate_target(model, g_pert, item)
                    correct.append(ok)
                    detail.append({
                        "item": [int(x) for x in np.atleast_1d(item)],
                        "attacked_node": int(t),
                        "edits": [[e.u, e.v, e.sign] for e in edits],
                        "graph_distance": int(dist),
                        "distortion": neighborhood_distortion(g, g_pert, t, k),
                        "correct": bool(ok),
                    })
                attacked_acc = float(np.mean(correct))
                if model.param_bytes() != frozen:
                    raise TrainingError(
                        "victim parameters changed during evaluation")
                report.cells.append({
                    "attacker": att_name, "victim": vb.name,
                    "task": model.task, "kind": model.kind, "budget": budget,
                    "orig_accuracy": orig_acc,
                    "attacked_accuracy": attacked_acc,
                    "da_percent": drop_in_accuracy(orig_acc, attacked_acc)
                    if orig_acc > 0 else None,
                    "targets": detail,
                })
                report.timings[f"{vb.name}/{att_name}/B{budget}"] = (
                    time.perf_counter() - cell_t0)
    return report
