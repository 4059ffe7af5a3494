"""Reinforcement-learned black-box attacker.

Two GNNs with different jobs: a frozen embedding model (trained
upstream) recomputes embeddings of each intermediate graph to provide
the reward signal, while a small GCN over node features — trained
end-to-end here, without biases, on the stacked-GCN pass that the GCN
victim and the GCN embedding backend share (``numerics.gcn_forward``) —
feeds the Q-function. The actions are the flips (t, v) of every other
endpoint v, one int64 array whose signs the current graph fixes, and the
Q-function scores each as a row of one product against the current state:

    state   mu_s = sum of GCN embeddings over N^k(t) in the edited graph
    action  mu_a = sign * concat(mu_v, mu_t)
    Q       w_out . sigmoid(W_merge^T concat(mu_s, mu_a))

Training runs L episodes of T edits with epsilon-greedy exploration
(epsilon = max(0.05, 0.9^j) on the global step count j), an n-step
replay buffer and squared-loss fitted Q-iteration; the bootstrap target
y = sum of the n intermediate rewards + gamma * max_e Q(S_{i+n}, e)
uses the current parameters (no frozen target copy). Each episode keeps
its graphs with the target's k-hop neighborhood in each, as neither
depends on the parameters: a step's reward reads two of these hoods, and
the replay keeps the graphs, so a fit derives no graph and only runs the
Q-net GCN forward and backward. Inference needs only B forward passes
and never touches the reward model.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import io as fileio
from .distortion import embedding_distortion
from .embed import embedding_forward
from .errors import DataError, TrainingError
from .graphs import (ADD, EdgeEdit, Graph, apply_edit, candidate_edits,
                     flip_edit, k_hop_neighborhood)
from .numerics import (Adam, gcn_backward, gcn_forward, rng_from_seed, sigmoid,
                       xavier_uniform)


@dataclass
class AttackEpisodeConfig:
    episodes: int = 100
    steps_per_episode: int = 10
    n_step: int = 2
    gamma: float = 0.99
    replay_capacity: int = 5000
    batch_size: int = 32
    target_fraction: float = 0.4
    learning_rate: float = 0.01
    hidden_dim: int = 16
    mlp_hidden: int = 16
    k: int = 2
    fit_every: int = 1

    def validate(self):
        if not (0 < self.n_step <= self.steps_per_episode):
            raise DataError(
                f"n_step {self.n_step} must lie in [1, {self.steps_per_episode}]")
        if not (0.0 < self.gamma <= 1.0):
            raise DataError(f"gamma {self.gamma} outside (0, 1]")
        if self.replay_capacity < self.batch_size:
            raise DataError("replay capacity smaller than batch size")
        if not (0.0 < self.target_fraction <= 1.0):
            raise DataError(f"target fraction {self.target_fraction} outside (0, 1]")


@dataclass
class QNetParams:
    gcn_ws: list[np.ndarray]  # feature-input GCN, no biases
    w_merge: np.ndarray  # (3h, mlp_hidden)
    w_out: np.ndarray  # (mlp_hidden,)
    k: int = 2
    n_step: int = 2
    gamma: float = 0.99

    @classmethod
    def init(cls, feature_dim: int, cfg: AttackEpisodeConfig,
             rng: np.random.Generator) -> "QNetParams":
        h = cfg.hidden_dim
        ws = [xavier_uniform(rng, feature_dim, h), xavier_uniform(rng, h, h)]
        return cls(gcn_ws=ws,
                   w_merge=xavier_uniform(rng, 3 * h, cfg.mlp_hidden),
                   w_out=xavier_uniform(rng, cfg.mlp_hidden, 1)[:, 0],
                   k=cfg.k, n_step=cfg.n_step, gamma=cfg.gamma)

    @property
    def hidden_dim(self) -> int:
        return self.gcn_ws[-1].shape[1]

    def param_dict(self) -> dict[str, np.ndarray]:
        out = {f"gcn.{i}": w for i, w in enumerate(self.gcn_ws)}
        out["w_merge"] = self.w_merge
        out["w_out"] = self.w_out
        return out

    def with_params(self, params: dict[str, np.ndarray]) -> "QNetParams":
        ws = [params[f"gcn.{i}"] for i in range(len(self.gcn_ws))]
        return QNetParams(gcn_ws=ws, w_merge=params["w_merge"],
                          w_out=params["w_out"], k=self.k,
                          n_step=self.n_step, gamma=self.gamma)


@dataclass(frozen=True)
class ReplayTuple:
    """One n-step transition. Besides its edits it holds the episode's
    graphs before and after them, each with the target's k-hop
    neighborhood in it; tuples of one episode share these graphs, which
    live as long as the tuples that hold them."""

    target: int
    state_edits: tuple[EdgeEdit, ...]
    action: EdgeEdit
    n_step_reward: float
    next_edits: tuple[EdgeEdit, ...]
    state_graph: Graph
    state_hood: np.ndarray
    next_graph: Graph
    next_hood: np.ndarray


def epsilon_schedule(step: int) -> float:
    return max(0.05, 0.9 ** step)


# -- GCN over node features ---------------------------------------------------------


def _mu_forward(qnet: QNetParams, g: Graph):
    """Node embeddings for the Q-function; returns (mu, cache)."""
    if qnet.gcn_ws[0].shape[0] != g.feature_dim:
        raise DataError(
            f"qnet expects {qnet.gcn_ws[0].shape[0]} features, graph has {g.feature_dim}")
    return gcn_forward(g.normalized_adjacency(), g.features, qnet.gcn_ws)


def _mu_backward(qnet: QNetParams, g: Graph, cache, dmu: np.ndarray
                 ) -> dict[str, np.ndarray]:
    dws, _ = gcn_backward(g.normalized_adjacency(), qnet.gcn_ws, cache, dmu)
    return {f"gcn.{i}": dw for i, dw in enumerate(dws)}


def _action_from_mu(mu: np.ndarray, v: int, t: int, sign: str) -> np.ndarray:
    vec = np.concatenate([mu[v], mu[t]])
    return vec if sign == ADD else -vec


def _score_candidates(qnet: QNetParams, mu: np.ndarray, g: Graph, t: int,
                      hood: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Q-values of flipping (t, v) for each v in `others`, in one product;
    the state sums mu over `hood`, t's k-hop neighborhood in g, and the
    sign is -1 where g has the edge (a delete) and +1 otherwise."""
    h = mu.shape[1]
    mu_s = mu[hood].sum(axis=0)
    is_nbr = np.zeros(g.node_count, dtype=bool)
    is_nbr[g.neighbors(t)] = True
    sgn = np.where(is_nbr[others], -1.0, 1.0)[:, None]
    rows = np.empty((len(others), 3 * h))
    rows[:, :h] = mu_s
    rows[:, h:2 * h] = sgn * mu[others]
    rows[:, 2 * h:] = sgn * mu[t]
    return sigmoid(rows @ qnet.w_merge) @ qnet.w_out


def step_reward(embed_model, t: int, hood: np.ndarray, g_next: Graph,
                next_hood: np.ndarray) -> float:
    """Marginal distortion gain of one edit, in the new graph's embedding,
    from t's k-hop `hood` before it to its `next_hood` after it."""
    return embedding_distortion(embedding_forward(embed_model, g_next), t,
                                hood, next_hood).value


# -- training --------------------------------------------------------------------------


def _episode_candidates(g_cur: Graph, t: int, edited: set[int],
                        accessible) -> np.ndarray:
    others = candidate_edits(g_cur, t, accessible)
    fresh = np.ones(g_cur.node_count, dtype=bool)
    fresh[list(edited)] = False
    return others[fresh[others]]


class _MuCache:
    """Per-fit cache of GCN forwards keyed by the canonical edit set, so
    that replay graphs with one edit set share one forward and one
    backward even when episodes built them as different objects."""

    def __init__(self, qnet: QNetParams):
        self.qnet = qnet
        self.entries: dict[tuple, dict] = {}

    def get(self, edits: tuple[EdgeEdit, ...], graph: Graph) -> dict:
        key = tuple(sorted((e.u, e.v, e.sign) for e in edits))
        if key not in self.entries:
            mu, cache = _mu_forward(self.qnet, graph)
            self.entries[key] = {"graph": graph, "mu": mu, "cache": cache,
                                 "dmu": None}
        return self.entries[key]


def train_dqn(g: Graph, embed_model, cfg: AttackEpisodeConfig, seed: int,
              accessible=None, target_nodes=None) -> tuple[QNetParams, list[float]]:
    """Fitted n-step Q-learning over edit episodes; returns the trained
    network and the total reward per episode.

    target_nodes, when given, is the exact pool episodes draw their
    targets from; by default a random target_fraction sample of all
    nodes is used.
    """
    cfg.validate()
    rng = rng_from_seed(seed)
    qnet = QNetParams.init(g.feature_dim, cfg, rng)
    if target_nodes is None:
        pool_size = max(1, int(round(cfg.target_fraction * g.node_count)))
        target_pool = np.sort(rng.choice(g.node_count, size=pool_size,
                                         replace=False))
    else:
        target_pool = np.unique(np.asarray(list(target_nodes), dtype=np.int64))
        if target_pool.size == 0:
            raise DataError("target_nodes must not be empty")
        if target_pool[0] < 0 or target_pool[-1] >= g.node_count:
            raise DataError("target_nodes out of range")
    replay: deque[ReplayTuple] = deque(maxlen=cfg.replay_capacity)
    opt = Adam(lr=cfg.learning_rate)
    episode_rewards: list[float] = []
    global_step = 0

    for _ in range(cfg.episodes):
        t = int(target_pool[rng.integers(target_pool.size)])
        edits: list[EdgeEdit] = []
        edited: set[int] = set()
        rewards: list[float] = []
        # the episode's graphs, each with t's k-hop neighborhood in it
        chain = [(g, k_hop_neighborhood(g, t, qnet.k))]
        for step_i in range(cfg.steps_per_episode):
            global_step += 1
            g_cur, hood = chain[-1]
            cands = _episode_candidates(g_cur, t, edited, accessible)
            if cands.size == 0:
                break
            if rng.random() < epsilon_schedule(global_step):
                other = cands[rng.integers(len(cands))]
            else:
                mu, _ = _mu_forward(qnet, g_cur)
                scores = _score_candidates(qnet, mu, g_cur, t, hood, cands)
                other = cands[int(np.argmax(scores))]
            edit = flip_edit(g_cur, t, other)
            g_next = apply_edit(g_cur, edit)
            chain.append((g_next, k_hop_neighborhood(g_next, t, qnet.k)))
            rewards.append(step_reward(embed_model, t, hood, g_next,
                                       chain[-1][1]))
            edits.append(edit)
            edited.add(int(other))
            if len(edits) >= cfg.n_step:
                root = len(edits) - cfg.n_step
                replay.append(ReplayTuple(
                    target=t,
                    state_edits=tuple(edits[:root]),
                    action=edits[root],
                    n_step_reward=float(sum(rewards[root:])),
                    next_edits=tuple(edits),
                    state_graph=chain[root][0],
                    state_hood=chain[root][1],
                    next_graph=g_next,
                    next_hood=chain[-1][1],
                ))
            if len(replay) >= cfg.batch_size and global_step % cfg.fit_every == 0:
                batch_idx = rng.choice(len(replay), size=cfg.batch_size,
                                       replace=False)
                qnet = _fit_batch(qnet, [replay[i] for i in batch_idx],
                                  cfg, opt, accessible)
        episode_rewards.append(float(sum(rewards)))
    return qnet, episode_rewards


def _fit_batch(qnet: QNetParams, batch: list[ReplayTuple],
               cfg: AttackEpisodeConfig, opt: Adam, accessible
               ) -> QNetParams:
    cache = _MuCache(qnet)
    h = qnet.hidden_dim
    grads = {name: np.zeros_like(p) for name, p in qnet.param_dict().items()}

    # bootstrap targets first (treated as constants)
    ys = []
    for tup in batch:
        entry = cache.get(tup.next_edits, tup.next_graph)
        edited = {e.v if e.u == tup.target else e.u for e in tup.next_edits}
        cands = _episode_candidates(tup.next_graph, tup.target, edited,
                                    accessible)
        if cands.size:
            scores = _score_candidates(qnet, entry["mu"], tup.next_graph,
                                       tup.target, tup.next_hood, cands)
            boot = float(np.max(scores))
        else:
            boot = 0.0
        ys.append(tup.n_step_reward + cfg.gamma * boot)

    losses = np.empty(len(batch))
    for idx, (tup, y) in enumerate(zip(batch, ys)):
        entry = cache.get(tup.state_edits, tup.state_graph)
        mu = entry["mu"]
        hood = tup.state_hood
        mu_s = mu[hood].sum(axis=0)
        v = tup.action.v if tup.action.u == tup.target else tup.action.u
        mu_a = _action_from_mu(mu, v, tup.target, tup.action.sign)
        cat = np.concatenate([mu_s, mu_a])
        z = cat @ qnet.w_merge
        hid = sigmoid(z)
        pred = float(hid @ qnet.w_out)
        resid = pred - y
        losses[idx] = resid * resid

        dpred = 2.0 * resid / len(batch)
        grads["w_out"] += dpred * hid
        dz = dpred * qnet.w_out * hid * (1.0 - hid)
        grads["w_merge"] += np.outer(cat, dz)
        dcat = qnet.w_merge @ dz
        dmu_s, dmu_a = dcat[:h], dcat[h:]
        sgn = 1.0 if tup.action.sign == ADD else -1.0
        if entry["dmu"] is None:
            entry["dmu"] = np.zeros_like(mu)
        entry["dmu"][hood] += dmu_s
        entry["dmu"][v] += sgn * dmu_a[:h]
        entry["dmu"][tup.target] += sgn * dmu_a[h:]

    if not np.all(np.isfinite(losses)):
        raise TrainingError("non-finite Q-learning loss; training diverged")

    for entry in cache.entries.values():
        if entry["dmu"] is None:
            continue
        gcn_grads = _mu_backward(qnet, entry["graph"], entry["cache"],
                                 entry["dmu"])
        for name, val in gcn_grads.items():
            grads[name] += val
    return qnet.with_params(opt.step(qnet.param_dict(), grads))


# -- inference ---------------------------------------------------------------------------


def infer_attack(qnet: QNetParams, g: Graph, t: int, budget: int,
                 accessible=None) -> list[EdgeEdit]:
    """Budget forward passes: per step, score every candidate edit on the
    current graph (signs re-derived) and commit the argmax. Candidates
    come one per other endpoint in ascending id order, so ties go to the
    lowest endpoint id."""
    if budget < 0:
        raise DataError(f"negative budget {budget}")
    chosen: list[EdgeEdit] = []
    cur = g
    for _ in range(budget):
        others = candidate_edits(cur, t, accessible)
        mu, _ = _mu_forward(qnet, cur)
        hood = k_hop_neighborhood(cur, t, qnet.k)
        scores = _score_candidates(qnet, mu, cur, t, hood, others)
        edit = flip_edit(cur, t, others[int(np.argmax(scores))])
        chosen.append(edit)
        cur = apply_edit(cur, edit)
    return chosen


# -- persistence ---------------------------------------------------------------------------


def save_attacker(path: str, qnet: QNetParams) -> None:
    meta = {"kind": "attacker", "gcn_layers": len(qnet.gcn_ws),
            "hidden_dim": qnet.hidden_dim,
            "mlp_hidden": int(qnet.w_merge.shape[1]), "k": qnet.k,
            "n_step": qnet.n_step, "gamma": qnet.gamma}
    fileio.write_blob(path, meta, qnet.param_dict())


def load_attacker(path: str) -> QNetParams:
    meta, arrays = fileio.read_blob(path)
    if meta.get("kind") != "attacker":
        raise DataError(f"{path}: not an attacker file")
    ws = [arrays[f"gcn.{i}"] for i in range(meta["gcn_layers"])]
    return QNetParams(gcn_ws=ws, w_merge=arrays["w_merge"],
                      w_out=arrays["w_out"], k=meta["k"],
                      n_step=meta["n_step"], gamma=meta["gamma"])
