"""End-to-end acceptance suite for the attack toolkit.

One test per shipped contract, each printing a single PASS/FAIL line
(visible with `pytest -s`). The slow attack-efficacy tests share a fixed
stochastic-block-model benchmark: graph, frozen embedding, and a GCN
victim are built once from hard-coded seeds, then the attacker/baseline
comparison runs across a frozen list of trial seeds.
"""
import hashlib
import os
import shutil
import time
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from nbrattack.analysis import (TargetCandidates, community_metric,
                                correlation_study, local_clustering, spearman)
from nbrattack.cli import main as cli_main
from nbrattack.distortion import embedding_distortion, graph_pair_distortion
from nbrattack.dqn import (AttackEpisodeConfig, QNetParams, ReplayTuple,
                           _fit_batch, infer_attack, inference_timer,
                           q_forward, state_repr, action_repr, train_dqn)
from nbrattack.embed import (EmbeddingTable, GinParams, _gin_backward,
                             _gin_forward_cached, EmbedConfig, WalkConfig,
                             embedding_forward, gin_forward, train_embedding,
                             unsup_loss)
from nbrattack.graphs import (ADD, DELETE, EdgeEdit, Graph, apply_edit,
                              apply_edits, k_hop_neighborhood,
                              neighborhood_distortion)
from nbrattack.numerics import finite_diff_check, rng_from_seed, stage_seed
from nbrattack.oracles import (SetCoverInstance, brute_force_max_distortion,
                               greedy_attack, has_cover, random_attack,
                               reduction_graph, two_hop_reach)
from nbrattack.sbm import generate_sbm
from nbrattack.victims import (SplitSpec, VictimConfig, _init_params,
                               _task_loss, _victim_backward, drop_in_accuracy,
                               evaluate_batch, evaluate_target, make_split,
                               train_victim, victim_forward)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# -- shared SBM benchmark (graph + frozen embedding + GCN victim) ---------------

_BENCH_SEED = 1
_BENCH_NOISE = 0.7
_ATTACK_CFG = AttackEpisodeConfig(episodes=150, steps_per_episode=5, n_step=5,
                                  batch_size=48, replay_capacity=4000,
                                  gamma=0.99, learning_rate=0.005,
                                  hidden_dim=16, mlp_hidden=16, fit_every=1,
                                  k=2)
_MAX_RESTARTS = 5
_DELTA_GATE = 1e-3


@lru_cache(maxsize=1)
def _bench():
    g = generate_sbm([50, 50], 0.3, 0.02, stage_seed(_BENCH_SEED, "sbm"),
                     feature_noise=_BENCH_NOISE)
    emb = train_embedding(
        g, EmbedConfig(hidden_dim=16, layer_count=2, epochs=30,
                       walk=WalkConfig(walk_length=10, context_size=5,
                                       walks_per_node=5)),
        stage_seed(_BENCH_SEED, "embed"))
    split = make_split(g, "nc", SplitSpec(0.3, 0.2, 0.5),
                       stage_seed(_BENCH_SEED, "split"))
    victim = train_victim(g, "nc", split,
                          VictimConfig(hidden_dim=16, epochs=500, patience=80),
                          stage_seed(_BENCH_SEED, "victim"))
    acc = float(np.mean(evaluate_batch(victim, g, split.test)))
    correct = split.test[evaluate_batch(victim, g, split.test)]
    return g, emb.model, victim, acc, correct


def _probe_delta(qnet, g, model, probe, budget=5):
    vals = []
    for t in probe:
        edits = infer_attack(qnet, g, int(t), budget)
        vals.append(graph_pair_distortion(
            model, g, apply_edits(g, edits), int(t), 2).value)
    return float(np.mean(vals))


def _train_attacker(g, model, targets, probe, seed, label):
    """Restart training until the attack objective clears the gate.

    Q-learning on this reward occasionally converges to a do-nothing
    policy; the achieved distortion on probe targets detects that
    without touching the victim, and a fresh seed retries the fit.
    """
    best, best_d = None, -np.inf
    for r in range(_MAX_RESTARTS):
        qnet, _ = train_dqn(g, model, _ATTACK_CFG,
                            stage_seed(seed, f"{label}{r}"),
                            target_nodes=targets)
        d = _probe_delta(qnet, g, model, probe)
        if d > best_d:
            best, best_d = qnet, d
        if best_d > _DELTA_GATE:
            break
    return best, best_d


def _flip_rate(victim, g, targets, attack_fn) -> float:
    """Percent of correctly-classified targets an attack flips."""
    still = [evaluate_target(victim, apply_edits(g, attack_fn(int(t))), int(t))
             for t in targets]
    return (1.0 - float(np.mean(still))) * 100.0


# -- 1. marginal-gain identities of the neighborhood distortion -----------------


def _jaccard_distance(s: frozenset, b: frozenset) -> float:
    return 1.0 - len(s & b) / len(s | b)


def _star_variant(m: int, extras: int, kept, foreign) -> Graph:
    """Star around node 0 with leaves 1..m; variant keeps `kept` leaves
    and attaches `foreign` of the extra nodes m+1..m+extras instead."""
    n = 1 + m + extras
    edges = [(0, leaf) for leaf in kept] + [(0, x) for x in foreign]
    return Graph(n, edges, np.ones((n, 1)))


def test_distortion_marginal_identities():
    t0 = time.perf_counter()
    rng = rng_from_seed(7)
    tol = 1e-12
    universe = list(range(12))
    checked = 0
    for _ in range(120):
        b = frozenset(rng.choice(universe, size=int(rng.integers(1, 9)),
                                 replace=False).tolist())
        x = int(rng.choice(sorted(b)))
        pool = [v for v in universe if v != x]
        s = frozenset(rng.choice(pool, size=int(rng.integers(0, 9)),
                                 replace=False).tolist())
        union = len(s | b)
        gain = _jaccard_distance(s | {x}, b) - _jaccard_distance(s, b)
        assert abs(gain + 1.0 / union) <= tol
        # growing the base set shrinks the union penalty: whenever the
        # union actually grows the marginal strictly increases, which
        # no submodular function allows
        grow = [v for v in universe if v not in s | b and v != x]
        if grow:
            s2 = s | {int(grow[0])}
            gain2 = _jaccard_distance(s2 | {x}, b) - _jaccard_distance(s2, b)
            assert abs(gain2 + 1.0 / (union + 1)) <= tol
            assert gain2 > gain
            # and adding a node from outside B moves the value the other
            # way: the function is not monotone in either direction
            assert _jaccard_distance(s2, b) > _jaccard_distance(s, b) - tol
        checked += 1
    assert checked >= 100

    graph_cases = 0
    for m in (2, 3, 4, 5, 6, 7):
        for kept_count in (0, max(0, m - 3), m - 1):
            g_orig = _star_variant(m, extras=3, kept=range(1, m + 1),
                                   foreign=())
            kept = list(range(1, kept_count + 1))
            x = kept_count + 1  # a leaf missing from the kept set
            for foreign in ([], [m + 1], [m + 1, m + 2]):
                g_s = _star_variant(m, 3, kept, foreign)
                g_sx = _star_variant(m, 3, kept + [x], foreign)
                b_set = k_hop_neighborhood(g_orig, 0, 1)
                s_set = k_hop_neighborhood(g_s, 0, 1)
                union = len(s_set | b_set)
                gain = (neighborhood_distortion(g_orig, g_sx, 0, 1)
                        - neighborhood_distortion(g_orig, g_s, 0, 1))
                assert abs(gain + 1.0 / union) <= tol
            # nested variants: one extra foreign endpoint grows the union,
            # so restoring the same leaf gains strictly more
            g_a = _star_variant(m, 3, kept, [m + 1])
            g_ax = _star_variant(m, 3, kept + [x], [m + 1])
            g_b = _star_variant(m, 3, kept, [m + 1, m + 2])
            g_bx = _star_variant(m, 3, kept + [x], [m + 1, m + 2])
            gain_a = (neighborhood_distortion(g_orig, g_ax, 0, 1)
                      - neighborhood_distortion(g_orig, g_a, 0, 1))
            gain_b = (neighborhood_distortion(g_orig, g_bx, 0, 1)
                      - neighborhood_distortion(g_orig, g_b, 0, 1))
            assert gain_b > gain_a
            graph_cases += 1
    assert graph_cases >= 10
    elapsed = time.perf_counter() - t0
    _verdict("distortion marginal identities", elapsed < 1.0,
             f"{checked} set fixtures + {graph_cases} graph fixtures, "
             f"tol 1e-12, {elapsed:.2f}s")


# -- 2. exhaustive attacker solves set cover through the reduction --------------


def _random_instance(rng) -> SetCoverInstance:
    n = int(rng.integers(1, 7))
    m = int(rng.integers(1, 7))
    subsets = []
    for _ in range(m):
        members = {int(e) for e in range(n) if rng.random() < 0.45}
        if not members:
            members = {int(rng.integers(n))}
        subsets.append(members)
    for e in range(n):  # the instance format requires full coverage at b=m
        if not any(e in s for s in subsets):
            subsets[int(rng.integers(m))].add(e)
    budget = int(rng.integers(1, m + 1))
    return SetCoverInstance(n_elements=n,
                            subsets=tuple(frozenset(s) for s in subsets),
                            budget=budget)


def test_exhaustive_attack_decides_set_cover():
    t0 = time.perf_counter()
    rng = rng_from_seed(11)
    coverable = uncoverable = 0
    for _ in range(60):
        inst = _random_instance(rng)
        g, t, accessible, b = reduction_graph(inst)
        edits, value = brute_force_max_distortion(g, t, b, k=2,
                                                  accessible=accessible)
        reach = two_hop_reach(apply_edits(g, edits), t)
        assert abs(value - (1.0 - 1.0 / (reach + 1))) <= 1e-12
        expected = has_cover(inst)
        assert (reach == b + inst.n_elements) == expected
        coverable += int(expected)
        uncoverable += int(not expected)
    assert coverable >= 5 and uncoverable >= 5
    elapsed = time.perf_counter() - t0
    _verdict("set-cover reduction oracle", elapsed < 30.0,
             f"60 instances ({coverable} coverable / {uncoverable} not), "
             f"max reach iff cover, {elapsed:.1f}s")


# -- 3. hand-written backpropagation vs central differences ---------------------


class _GradSpy:
    """Optimizer stand-in that records gradients and applies no update."""

    def __init__(self):
        self.grads = None

    def step(self, params, grads):
        self.grads = {k: np.array(v) for k, v in grads.items()}
        return params


def _check_gin_grads() -> float:
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                  (1, 4)], np.ones((8, 1)))
    model = GinParams.init(8, 4, 2, rng_from_seed(3))
    pos = np.array([[0, 1], [1, 2], [3, 4], [5, 6], [2, 4]], dtype=np.int64)
    neg = np.array([[0, 7], [2, 6], [1, 5]], dtype=np.int64)
    values, cache = _gin_forward_cached(model, g)
    _, dz = unsup_loss(EmbeddingTable(values, "gin"), pos, neg)
    grads = _gin_backward(model, g, cache, dz)
    base = model.param_dict()
    worst = 0.0
    for name in base:
        def loss_fn(arr, name=name):
            params = {k: (arr if k == name else v) for k, v in base.items()}
            table = gin_forward(model.with_params(params), g)
            return unsup_loss(table, pos, neg)[0]
        worst = max(worst, finite_diff_check(loss_fn, base[name], grads[name]))
    return worst


def _check_qnet_grads() -> float:
    rng = rng_from_seed(5)
    feats = rng.normal(size=(8, 2))
    g = Graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 3)],
              feats)
    cfg = AttackEpisodeConfig(hidden_dim=4, mlp_hidden=4, k=2)
    qnet = QNetParams.init(2, cfg, rng)
    accessible = [1, 2]
    shut = (EdgeEdit(0, 1, ADD), EdgeEdit(0, 2, ADD))  # exhausts candidates
    batch = [
        ReplayTuple(target=0, state_edits=(), action=EdgeEdit(0, 1, ADD),
                    n_step_reward=0.37, next_edits=shut),
        ReplayTuple(target=0, state_edits=(EdgeEdit(0, 1, ADD),),
                    action=EdgeEdit(0, 2, ADD), n_step_reward=-0.12,
                    next_edits=shut),
        ReplayTuple(target=0, state_edits=(EdgeEdit(0, 2, ADD),),
                    action=EdgeEdit(0, 2, DELETE), n_step_reward=0.05,
                    next_edits=shut),
    ]
    # with every accessible endpoint already edited the bootstrap term is
    # zero, so the regression targets are the rewards themselves
    ys = [tup.n_step_reward for tup in batch]
    spy = _GradSpy()
    _fit_batch(qnet, g, batch, cfg, spy, accessible)
    base = qnet.param_dict()

    def batch_loss(params):
        net = qnet.with_params(params)
        total = 0.0
        for tup, y in zip(batch, ys):
            g_s = apply_edits(g, tup.state_edits)
            v = tup.action.v if tup.action.u == tup.target else tup.action.u
            pred = q_forward(net, state_repr(net, g_s, tup.target),
                             action_repr(net, g_s, v, tup.target,
                                         tup.action.sign))
            total += (pred - y) ** 2
        return total / len(batch)

    worst = 0.0
    for name in base:
        def loss_fn(arr, name=name):
            return batch_loss({k: (arr if k == name else v)
                               for k, v in base.items()})
        worst = max(worst, finite_diff_check(loss_fn, base[name],
                                             spy.grads[name]))
    return worst


def _check_victim_grads() -> float:
    rng = rng_from_seed(9)
    feats = rng.normal(size=(10, 3))
    labels = np.array([0, 0, 1, 1, 0, 1, 0, 1, 1, 0])
    g = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                   (7, 8), (8, 9), (0, 4), (2, 8)], feats, labels)
    nodes = np.arange(6)
    worst = 0.0
    for kind in ("gcn", "mean-aggregator"):
        params = _init_params(kind, 3, 4, 2, rng)
        out, cache = victim_forward(kind, params, g)
        _, dout = _task_loss("nc", out, nodes, labels)
        grads = _victim_backward(kind, params, g, cache, dout)
        for name in params:
            def loss_fn(arr, name=name):
                trial = {k: (arr if k == name else v)
                         for k, v in params.items()}
                return _task_loss("nc", victim_forward(kind, trial, g)[0],
                                  nodes, labels)[0]
            worst = max(worst, finite_diff_check(loss_fn, params[name],
                                                 grads[name]))
    return worst


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    errs = {"embedding": _check_gin_grads(),
            "q-network": _check_qnet_grads(),
            "victim": _check_victim_grads()}
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    _verdict("finite-difference gradient suite",
             worst < 1e-4 and elapsed < 120.0,
             "max rel err " + ", ".join(f"{k} {v:.2e}"
                                        for k, v in errs.items())
             + f", {elapsed:.1f}s")


# -- 4. distortion is null on untouched neighborhoods, stable under isometry ----


def test_distortion_noop_and_isometry():
    t0 = time.perf_counter()
    rng = rng_from_seed(13)
    # component A holds the target; component B soaks up the edits
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)]
    pool = []
    for u in range(6, 56):
        for v in range(u + 1, 56):
            if rng.random() < 0.5:
                edges.append((u, v))
                pool.append((u, v, DELETE))
            else:
                pool.append((u, v, ADD))
    g = Graph(56, edges, np.ones((56, 1)))
    model = GinParams.init(56, 8, 2, rng)
    n_orig = k_hop_neighborhood(g, 0, 2)
    checked = 0
    for u, v, sign in pool[:1000]:
        gp = apply_edit(g, EdgeEdit(u, v, sign))
        n_pert = k_hop_neighborhood(gp, 0, 2)
        assert n_pert == n_orig
        score = embedding_distortion(embedding_forward(model, gp), 0,
                                     n_orig, n_pert)
        assert score.value == 0.0
        checked += 1
    assert checked == 1000

    worst_rot = worst_scale = 0.0
    for _ in range(20):
        z = rng.normal(size=(20, 8))
        a = frozenset(rng.choice(20, size=6, replace=False).tolist())
        b = frozenset(rng.choice(20, size=7, replace=False).tolist())
        base = embedding_distortion(EmbeddingTable(z, "gin"), 0, a, b).value
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        rotated = embedding_distortion(EmbeddingTable(z @ q, "gin"),
                                       0, a, b).value
        worst_rot = max(worst_rot, abs(rotated - base))
        for c in (0.3, 2.5):
            scaled = embedding_distortion(EmbeddingTable(c * z, "gin"),
                                          0, a, b).value
            worst_scale = max(worst_scale, abs(scaled - c * base))
    elapsed = time.perf_counter() - t0
    _verdict("distortion no-op and isometry semantics",
             worst_rot <= 1e-9 and worst_scale <= 1e-9,
             f"1000 no-op edits exactly zero, rotation dev {worst_rot:.1e}, "
             f"scaling dev {worst_scale:.1e}, {elapsed:.1f}s")


# -- 5. trained attacker beats the random baseline on the SBM benchmark ---------


@pytest.mark.slow
def test_attacker_beats_random_baseline():
    t0 = time.perf_counter()
    g, model, victim, acc, correct = _bench()
    assert acc >= 0.9, f"victim accuracy {acc:.3f} below 0.9"
    trial_seeds = list(range(8))
    wins = 0
    details = []
    for seed in trial_seeds:
        rng = rng_from_seed(stage_seed(seed, "targets"))
        targets = np.sort(rng.choice(correct, size=min(30, len(correct)),
                                     replace=False))
        assert len(targets) >= 20
        qnet, _ = _train_attacker(g, model, targets, targets[:10], seed,
                                  "dqn")
        da_dqn = _flip_rate(victim, g, targets,
                            lambda t: infer_attack(qnet, g, t, 5))
        da_rand = float(np.mean([
            _flip_rate(victim, g, targets,
                       lambda t, rep=rep: random_attack(
                           g, t, 5, stage_seed(seed, f"r{rep}:{t}")))
            for rep in range(5)]))
        wins += int(da_dqn > da_rand)
        details.append(f"{da_dqn:.1f}/{da_rand:.1f}")
    n = len(trial_seeds)
    p = sum(comb(n, k) for k in range(wins, n + 1)) / 2.0 ** n
    elapsed = time.perf_counter() - t0
    _verdict("attacker beats random baseline",
             p < 0.05 and elapsed < 900.0,
             f"victim acc {acc:.3f}, wins {wins}/{n} "
             f"(attacked%/baseline%: {' '.join(details)}), sign test "
             f"p={p:.4f}, {elapsed:.0f}s")


# -- 6. greedy dominates the learned attacker on quality, loses on speed --------


@pytest.mark.slow
def test_greedy_quality_and_speed_gap():
    t0 = time.perf_counter()
    g, model, victim, _, correct = _bench()
    rng = rng_from_seed(stage_seed(0, "greedy-targets"))
    targets = np.sort(rng.choice(correct, size=10, replace=False))
    qnet, _ = _train_attacker(g, model, targets, targets, 0, "gdqn")

    def score(edits, t):
        return graph_pair_distortion(model, g, apply_edits(g, edits),
                                     int(t), 2).value

    g0 = time.perf_counter()
    greedy_edits = [greedy_attack(g, int(t), 5, 2, model) for t in targets]
    greedy_secs = time.perf_counter() - g0
    d0 = time.perf_counter()
    dqn_edits = [infer_attack(qnet, g, int(t), 5) for t in targets]
    dqn_secs = time.perf_counter() - d0
    greedy_mean = float(np.mean([score(e, t)
                                 for e, t in zip(greedy_edits, targets)]))
    dqn_mean = float(np.mean([score(e, t)
                              for e, t in zip(dqn_edits, targets)]))
    ratio = greedy_secs / dqn_secs
    elapsed = time.perf_counter() - t0
    _verdict("greedy quality and speed gap",
             greedy_mean >= dqn_mean and ratio >= 20.0 and elapsed < 1200.0,
             f"mean distortion greedy {greedy_mean:.4f} vs learned "
             f"{dqn_mean:.4f}; wall-clock {greedy_secs:.1f}s vs "
             f"{dqn_secs:.2f}s ({ratio:.0f}x), {elapsed:.0f}s")


# -- 7. inference cost scales linearly in budget and gently in graph size -------


def test_inference_cost_scaling():
    t0 = time.perf_counter()
    g1 = generate_sbm([50, 50], 0.3, 0.02, stage_seed(2, "scale-a"), 0.1)
    g2 = generate_sbm([100, 100], 0.15, 0.01, stage_seed(2, "scale-b"), 0.1)
    size1 = g1.node_count + g1.edge_count
    size2 = g2.node_count + g2.edge_count
    assert 1.6 <= size2 / size1 <= 2.4, f"sizes {size1} vs {size2}"
    cfg = AttackEpisodeConfig(episodes=8, steps_per_episode=3, n_step=2,
                              batch_size=16, replay_capacity=500,
                              hidden_dim=16, mlp_hidden=16, k=2)
    qnet, _ = train_dqn(g1, GinParams.init(g1.node_count, 16, 2,
                                           rng_from_seed(4)), cfg, seed=4)
    targets = [3, 17, 42, 61, 77, 90]
    budgets = [1, 5, 10, 20]
    rows = inference_timer(qnet, g1, targets, budgets, repeats=3)
    per_budget = {b: sum(r["seconds"] for r in rows if r["budget"] == b)
                  for b in budgets}
    # linear growth in budget: every incremental cost per extra edit must
    # sit within +-50% of the mean slope across the whole budget range
    slopes = [(per_budget[b2] - per_budget[b1]) / (b2 - b1)
              for b1, b2 in zip(budgets, budgets[1:])]
    mean_slope = float(np.mean(slopes))
    in_band = mean_slope > 0 and all(
        0.5 * mean_slope <= s <= 1.5 * mean_slope for s in slopes)
    small = sum(r["seconds"] for r in
                inference_timer(qnet, g1, targets, [5], repeats=3))
    big = sum(r["seconds"] for r in
              inference_timer(qnet, g2, targets, [5], repeats=3))
    growth = big / small
    elapsed = time.perf_counter() - t0
    _verdict("inference cost scaling",
             in_band and growth < 3.0,
             "per-edit slope "
             + " ".join(f"{s * 1e3:.2f}ms" for s in slopes)
             + f" (band ±50% around {mean_slope * 1e3:.2f}ms), doubled graph "
             f"{growth:.2f}x, {elapsed:.1f}s")


# -- 8. the accuracy-drop metric is the exact relative-drop formula -------------


def test_accuracy_drop_formula():
    tol = 1e-12
    rng = rng_from_seed(17)
    worst = 0.0
    for _ in range(200):
        orig = float(rng.uniform(0.05, 1.0))
        attacked = float(rng.uniform(0.0, orig))
        worst = max(worst, abs(drop_in_accuracy(orig, attacked)
                               - (orig - attacked) / orig * 100.0))
    anchor = drop_in_accuracy(81.6, 81.6 * (1.0 - 0.192))
    round_trip = abs(anchor - 19.2)
    attacked_back = 81.6 * (1.0 - anchor / 100.0)
    _verdict("accuracy-drop formula",
             worst <= tol and round_trip <= tol
             and abs(attacked_back - 65.9328) <= 1e-9,
             f"200 formula checks dev {worst:.1e}, anchor 81.6 -> "
             f"{attacked_back:.4f} -> {anchor:.4f}% drop")


# -- 9. rank correlation, community metrics, and the clustering study -----------


def _community_oracle(edges, n, s, total_edges, which, corrected):
    cut = sum(1 for u, v in edges if (u in s) != (v in s))
    internal = sum(1 for u, v in edges if u in s and v in s)
    vol = 2 * internal + cut
    if which == "edge_expansion":
        return cut / min(len(s), n - len(s))
    if which == "conductance":
        return 0.0 if vol == 0 else cut / vol
    if which == "volume":
        return float(vol)
    if cut == 0:
        return 0.0
    if corrected:
        other = 2 * (total_edges - internal) - cut
    else:
        other = 2 * (total_edges + internal) - cut
    return cut * (1.0 / vol + 1.0 / other)


def test_rank_correlation_and_community_analysis():
    t0 = time.perf_counter()
    tol = 1e-12
    up = spearman([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
    down = spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
    mid = spearman([1, 2, 3, 4, 5], [2, 3, 1, 4, 5])
    assert abs(up.coefficient - 1.0) <= tol and up.p_value == 0.0
    assert abs(down.coefficient + 1.0) <= tol
    assert abs(mid.coefficient - 0.7) <= tol

    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 3),
             (5, 6), (6, 7), (7, 8), (8, 6), (0, 9), (9, 10)]
    g = Graph(12, edges, np.ones((12, 1)))  # node 11 stays isolated
    communities = [{0}, {0, 1, 2}, {3, 4, 5}, {0, 1, 2, 3, 4, 5}, {9, 10},
                   {11}, {6, 7, 8, 11}]
    worst = 0.0
    for s in communities:
        for which in ("edge_expansion", "conductance", "volume",
                      "normalized_cut"):
            for corrected in (False, True):
                got = community_metric(g, s, which, corrected_ncs=corrected)
                want = _community_oracle(edges, 12, s, len(edges), which,
                                         corrected)
                worst = max(worst, abs(got - want))
    assert worst <= tol

    # clustering fixture: hub i has i+2 satellites, the first i+1 of them
    # fully interconnected, so both its clustering coefficient i/(i+2) and
    # the distortion of wiring the target to it rise strictly with i
    edges = [(0, 1)]
    hubs = []
    nxt = 2
    for i in range(8):
        hub = nxt
        sats = list(range(nxt + 1, nxt + 1 + (i + 2)))
        nxt = sats[-1] + 1
        hubs.append(hub)
        edges.extend((hub, s) for s in sats)
        clique = sats[:i + 1]
        edges.extend((clique[a], clique[b])
                     for a in range(len(clique))
                     for b in range(a + 1, len(clique)))
    g_study = Graph(nxt, edges, np.ones((nxt, 1)))
    dists = [neighborhood_distortion(
        g_study, apply_edit(g_study, EdgeEdit(0, h, ADD)), 0, 2)
        for h in hubs]
    assert all(b > a for a, b in zip(dists, dists[1:]))
    clust = [local_clustering(g_study, h) for h in hubs]
    assert all(b > a for a, b in zip(clust, clust[1:]))
    rows = correlation_study(
        g_study, [TargetCandidates(target=0, nodes=hubs, distortions=dists)],
        properties=("local_clustering",), exact=True)
    row = next(r for r in rows if r["property"] == "local_clustering")
    elapsed = time.perf_counter() - t0
    _verdict("rank correlation and community analysis",
             row["mean_coefficient"] > 0 and row["mean_p_value"] < 0.05,
             f"hand coefficients exact, community dev {worst:.1e}, "
             f"clustering corr {row['mean_coefficient']:+.2f} "
             f"(p={row['mean_p_value']:.1e}), {elapsed:.1f}s")


# -- 10. the whole pipeline is byte-reproducible under one root seed ------------

_PIPELINE_SETTINGS = [
    "seed=0", "sbm_blocks=20,20", "sbm_p_in=0.3", "sbm_p_out=0.05",
    "sbm_feature_noise=0.2", "embed_epochs=5", "walk_length=8",
    "context_size=4", "walks_per_node=3", "dqn_episodes=6", "dqn_steps=3",
    "dqn_n_step=2", "dqn_batch=16", "dqn_capacity=500", "num_targets=4",
    "budgets=1,2", "attackers=dqn,random,degree", "victim_epochs=60",
    "victim_patience=12", "train_frac=0.3", "val_frac=0.2", "test_frac=0.5",
    "analyze_targets=2", "oracle_budget=1", "oracle_targets=2",
]
_TIMING_FILES = {"timings.json", "oracle_timings.json"}


def _run_pipeline(out_dir: str) -> dict[str, str]:
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    overrides = []
    for item in _PIPELINE_SETTINGS:
        overrides.extend(["--set", item])
    for stage in ("gen-sbm", "train-embed", "train-attack", "attack",
                  "evaluate", "analyze", "oracle"):
        rc = cli_main([stage, "--out-dir", out_dir, *overrides])
        assert rc == 0, f"stage {stage} exited with {rc}"
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name in _TIMING_FILES:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def test_pipeline_byte_reproducible(tmp_path):
    t0 = time.perf_counter()
    out_dir = str(tmp_path / "run")
    first = _run_pipeline(out_dir)
    second = _run_pipeline(out_dir)
    assert first.keys() == second.keys()
    stale = [name for name in first if first[name] != second[name]]
    elapsed = time.perf_counter() - t0
    _verdict("pipeline byte-reproducibility", not stale,
             f"{len(first)} artifacts over 7 stages hashed twice"
             + (f"; mismatches: {stale}" if stale else "")
             + f", {elapsed:.0f}s")
