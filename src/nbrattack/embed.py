"""Unsupervised node embeddings used as the distortion proxy.

The main backend is a GIN taking transductive one-hot inputs:

    h_v = MLP_i((1 + eps_i) * h_v_prev + sum_{u in N(v)} h_u_prev)

trained with a skip-gram objective over random-walk context pairs and
negative sampling:

    loss = mean_pos -log s(z_c . z_x) + mean_neg -log s(-z_c . z_x)

One-hot inputs are never materialized: with H0 = I the first layer's
aggregation is (1+eps) * W + A @ W, which keeps every pass at
O(|E| * dim) using the CSR adjacency. Backprop is written by hand and
checked coordinate-wise against central differences in the tests.

An epoch is array-native outside the walk steps themselves. A uniform
step replays the generator's own ``integers(deg)`` draw on uint32 words
drawn ahead in blocks (``_WordStream``), and a biased step makes one
``rng.choice`` call; both run in the order a walk-by-walk loop makes
them, so the generator's stream is fixed. The walks land in one array
and their context pairs come from a single position template. The loss
gradient is scattered by one sparse (targets x others) product in input
order, which adds each node's terms in the order ``np.add.at`` would,
so the gradient, and with it every trained model, is bit-identical to
the per-pair scatter it replaces.

A GCN backend (same loss, symmetric-normalized propagation) is kept for
ablation; it runs the stacked-GCN pass of ``numerics`` that the
Q-network and the GCN victim share, with one-hot input. Tables carry a
backend tag so downstream stages can tell them apart.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import coo_array

from . import io as fileio
from .errors import DataError, SamplingError
from .graphs import Graph
from .numerics import (Adam, gcn_backward, gcn_forward, neg_log_sigmoid, relu,
                       rng_from_seed, sigmoid, xavier_uniform)


@dataclass
class WalkConfig:
    walk_length: int = 20
    context_size: int = 10
    walks_per_node: int = 10
    return_p: float = 1.0
    inout_q: float = 1.0


@dataclass
class EmbedConfig:
    backend: str = "gin"  # "gin" or "gcn"
    hidden_dim: int = 16
    layer_count: int = 2
    epochs: int = 30
    learning_rate: float = 0.01
    negatives_per_positive: int = 1
    walk: WalkConfig = field(default_factory=WalkConfig)


@dataclass
class EmbeddingTable:
    values: np.ndarray  # (node_count, dim) float64
    backend: str = "gin"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"embedding table must be 2-d, got {self.values.shape}")

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class GinLayer:
    eps: np.ndarray  # 0-d
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class GinParams:
    node_count: int
    hidden_dim: int
    layers: list[GinLayer]

    @classmethod
    def init(cls, node_count: int, hidden_dim: int, layer_count: int,
             rng: np.random.Generator) -> "GinParams":
        if layer_count < 1:
            raise DataError(f"layer_count must be >= 1, got {layer_count}")
        layers = []
        for i in range(layer_count):
            in_dim = node_count if i == 0 else hidden_dim
            layers.append(GinLayer(
                eps=np.zeros(()),
                w1=xavier_uniform(rng, in_dim, hidden_dim),
                b1=np.zeros(hidden_dim),
                w2=xavier_uniform(rng, hidden_dim, hidden_dim),
                b2=np.zeros(hidden_dim),
            ))
        return cls(node_count, hidden_dim, layers)

    def param_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for i, lay in enumerate(self.layers):
            for name in ("eps", "w1", "b1", "w2", "b2"):
                out[f"{i}.{name}"] = getattr(lay, name)
        return out

    def with_params(self, params: dict[str, np.ndarray]) -> "GinParams":
        layers = [GinLayer(eps=params[f"{i}.eps"], w1=params[f"{i}.w1"],
                           b1=params[f"{i}.b1"], w2=params[f"{i}.w2"],
                           b2=params[f"{i}.b2"])
                  for i in range(len(self.layers))]
        return GinParams(self.node_count, self.hidden_dim, layers)


@dataclass
class GcnEmbedParams:
    """Unsupervised GCN backend: H_i = act(S (H_{i-1} W_i) + b_i), H_0 = I."""

    node_count: int
    hidden_dim: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, node_count: int, hidden_dim: int, layer_count: int,
             rng: np.random.Generator) -> "GcnEmbedParams":
        ws, bs = [], []
        for i in range(layer_count):
            in_dim = node_count if i == 0 else hidden_dim
            ws.append(xavier_uniform(rng, in_dim, hidden_dim))
            bs.append(np.zeros(hidden_dim))
        return cls(node_count, hidden_dim, ws, bs)

    def param_dict(self) -> dict[str, np.ndarray]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{i}.w"] = w
            out[f"{i}.b"] = b
        return out

    def with_params(self, params: dict[str, np.ndarray]) -> "GcnEmbedParams":
        k = len(self.weights)
        return GcnEmbedParams(self.node_count, self.hidden_dim,
                              [params[f"{i}.w"] for i in range(k)],
                              [params[f"{i}.b"] for i in range(k)])


# -- GIN forward / backward ------------------------------------------------------


def _gin_forward_cached(params: GinParams, g: Graph):
    if params.node_count != g.node_count:
        raise DataError(
            f"params built for {params.node_count} nodes, graph has {g.node_count}")
    a = g.adjacency()
    cache = []
    h = None  # implicit one-hot before the first layer
    for i, lay in enumerate(params.layers):
        eps = float(lay.eps)
        if i == 0:
            # M = (1+eps) I + A, so M @ w1 = (1+eps) w1 + A w1
            m = None
            lin = (1.0 + eps) * lay.w1 + a @ lay.w1 + lay.b1
        else:
            m = (1.0 + eps) * h + a @ h
            lin = m @ lay.w1 + lay.b1
        act = relu(lin)
        out = act @ lay.w2 + lay.b2
        cache.append({"h_prev": h, "m": m, "lin": lin, "act": act})
        h = out
    return h, cache


def gin_forward(params: GinParams, g: Graph) -> EmbeddingTable:
    values, _ = _gin_forward_cached(params, g)
    return EmbeddingTable(values=values, backend="gin")


def _gin_backward(params: GinParams, g: Graph, cache, d_out: np.ndarray
                  ) -> dict[str, np.ndarray]:
    a = g.adjacency()
    grads: dict[str, np.ndarray] = {}
    dh = d_out
    for i in reversed(range(len(params.layers))):
        lay = params.layers[i]
        c = cache[i]
        grads[f"{i}.b2"] = dh.sum(axis=0)
        grads[f"{i}.w2"] = c["act"].T @ dh
        dact = dh @ lay.w2.T
        dlin = dact * (c["lin"] > 0)
        grads[f"{i}.b1"] = dlin.sum(axis=0)
        eps = float(lay.eps)
        if i == 0:
            # lin = (1+eps) w1 + A w1 + b1
            grads[f"{i}.w1"] = (1.0 + eps) * dlin + a @ dlin
            grads[f"{i}.eps"] = np.asarray(np.sum(dlin * lay.w1))
            dh = None
        else:
            grads[f"{i}.w1"] = c["m"].T @ dlin
            dm = dlin @ lay.w1.T
            grads[f"{i}.eps"] = np.asarray(np.sum(dm * c["h_prev"]))
            dh = (1.0 + eps) * dm + a @ dm
    return grads


# -- GCN backend forward / backward ------------------------------------------------


def _gcn_embed_forward_cached(params: GcnEmbedParams, g: Graph):
    if params.node_count != g.node_count:
        raise DataError(
            f"params built for {params.node_count} nodes, graph has {g.node_count}")
    return gcn_forward(g.normalized_adjacency(), None, params.weights,
                       params.biases)


def gcn_embed_forward(params: GcnEmbedParams, g: Graph) -> EmbeddingTable:
    values, _ = _gcn_embed_forward_cached(params, g)
    return EmbeddingTable(values=values, backend="gcn")


def _gcn_embed_backward(params: GcnEmbedParams, g: Graph, cache,
                        d_out: np.ndarray) -> dict[str, np.ndarray]:
    dws, dbs = gcn_backward(g.normalized_adjacency(), params.weights, cache,
                            d_out)
    grads: dict[str, np.ndarray] = {}
    for i, (dw, db) in enumerate(zip(dws, dbs)):
        grads[f"{i}.w"] = dw
        grads[f"{i}.b"] = db
    return grads


def embedding_forward(model, g: Graph) -> EmbeddingTable:
    if isinstance(model, GinParams):
        return gin_forward(model, g)
    if isinstance(model, GcnEmbedParams):
        return gcn_embed_forward(model, g)
    raise DataError(f"unknown embedding model type {type(model).__name__}")


# -- random walks and the skip-gram objective ---------------------------------------

# Rows of z gathered at once when scoring pairs in unsup_loss.
_SCORE_CHUNK = 1 << 16


# Bounded draws work on the bit generator's 32-bit words.
_WORD = 1 << 32
_LOW = _WORD - 1


class _WordStream:
    """Replays ``Generator.integers(d)`` on the generator's own uint32 words.

    For 1 <= d < 2**32 numpy draws ``integers(d)`` with Lemire's bounded
    method on the bit generator's 32-bit words: it takes a word u, forms
    m = u * d, draws again while m mod 2**32 < (2**32 - d) mod d, and
    returns m >> 32; for d = 1 it draws nothing. ``below`` does the same
    arithmetic on Python ints. The words come ``block`` at a time from
    ``integers(0, 2**32, dtype=np.uint32)`` on a copy of the generator,
    and the generator itself is advanced by the words each block hands
    out (``close`` settles the last one), so its state ends where the
    scalar calls would have left it and memory stays O(block).
    """

    def __init__(self, rng: np.random.Generator, block: int):
        self._rng = rng
        self._ahead = copy.deepcopy(rng)
        self._block = max(block, 1)
        self._words: list[int] = []
        self._pos = 0

    def _word(self) -> int:
        if self._pos == len(self._words):
            self.close()
            self._words = self._ahead.integers(0, _WORD, size=self._block,
                                               dtype=np.uint32).tolist()
        word = self._words[self._pos]
        self._pos += 1
        return word

    def below(self, d: int) -> int:
        """The value ``rng.integers(d)`` would return, for 1 <= d < 2**32."""
        if d == 1:
            return 0
        m = self._word() * d
        if m & _LOW < d:  # d bounds the threshold, so most draws skip it
            threshold = (_WORD - d) % d
            while m & _LOW < threshold:
                m = self._word() * d
        return m >> 32

    def close(self) -> None:
        """Advance the generator past the words handed out since the last call."""
        self._rng.integers(0, _WORD, size=self._pos, dtype=np.uint32)
        self._words, self._pos = [], 0


def _uniform_walk(nbrs: list[list[int]], start: int, length: int,
                  below) -> list[int]:
    """One p = q = 1 walk from ``start``; it stops early only at an isolated
    start. ``below(deg)`` picks each step as ``rng.integers(deg)`` would."""
    walk = [start]
    cur = start
    for _ in range(length - 1):
        row = nbrs[cur]
        if not row:
            break
        cur = row[below(len(row))]
        walk.append(cur)
    return walk


def _second_order_walk(indptr, indices, start: int, length: int, p: float,
                       q: float, rng: np.random.Generator) -> list[int]:
    """One biased walk from ``start``; it stops early only at an isolated
    start. The first step draws ``rng.integers(deg)`` and every later one
    ``rng.choice(deg, p=w)``."""
    walk = [start]
    while len(walk) < length:
        cur = walk[-1]
        row = indices[indptr[cur]:indptr[cur + 1]]
        if row.size == 0:
            break
        if len(walk) == 1:
            nxt = int(row[rng.integers(row.size)])
        else:
            prev = walk[-2]
            w = np.ones(row.size)
            w[row == prev] = 1.0 / p
            # rows are sorted, so one searchsorted finds each x's slot in prev's row
            prow = indices[indptr[prev]:indptr[prev + 1]]
            near = prow[np.minimum(prow.searchsorted(row), prow.size - 1)] == row
            far = ~near & (row != prev)
            w[far] = 1.0 / q
            w /= w.sum()
            nxt = int(row[rng.choice(row.size, p=w)])
        walk.append(nxt)
    return walk


def sample_positive_walks(g: Graph, cfg: WalkConfig, rng: np.random.Generator
                          ) -> np.ndarray:
    """Skip-gram (center, context) pairs from node2vec-style walks.

    Context windows look forward only: walk positions (i, j) pair up for
    i < j <= i + context_size. Returns an int64 array of shape (P, 2),
    walk by walk in generation order (``walks_per_node`` rounds over the
    nodes), each walk's pairs ordered by i then j. Uniform walks
    (p = q = 1) take their steps from a ``_WordStream`` that draws one
    round's n * (walk_length - 1) words at a time; biased walks call the
    generator per step. Either way the generator ends in the state a
    per-step ``rng.integers`` loop leaves. The walks go into one
    (walks, walk_length) array, and the pairs are expanded from a single
    position template, masked to each walk's length.
    """
    if cfg.walk_length < 1 or cfg.context_size < 1 or cfg.walks_per_node < 1:
        raise DataError("walk configuration values must be positive")
    csr = g.adjacency()
    indptr, indices = csr.indptr, csr.indices
    n, length = g.node_count, cfg.walk_length
    p, q = cfg.return_p, cfg.inout_q
    steps, lens = [], []
    if p == 1.0 and q == 1.0:
        nbrs = [indices[indptr[u]:indptr[u + 1]].tolist() for u in range(n)]
        stream = _WordStream(rng, n * (length - 1))
        for _ in range(cfg.walks_per_node):
            for start in range(n):
                walk = _uniform_walk(nbrs, start, length, stream.below)
                steps.extend(walk)
                lens.append(len(walk))
        stream.close()
    else:
        for _ in range(cfg.walks_per_node):
            for start in range(n):
                walk = _second_order_walk(indptr, indices, start, length, p, q,
                                          rng)
                steps.extend(walk)
                lens.append(len(walk))
    lens = np.asarray(lens, dtype=np.int64)
    walks = np.zeros((lens.size, length), dtype=np.int64)
    walks[np.arange(length) < lens[:, None]] = steps
    # the template: positions (i, j) of a full-length walk, ordered by i then j
    ti, tj = np.triu_indices(length, 1)
    window = tj - ti <= cfg.context_size
    ti, tj = ti[window], tj[window]
    keep = tj < lens[:, None]
    return np.stack([walks[:, ti][keep], walks[:, tj][keep]], axis=1)


def _batch_negatives(g: Graph, centers: np.ndarray, per_center: int,
                     rng: np.random.Generator) -> np.ndarray:
    """One or more negatives per center via rejection sampling.

    Returns (len(centers) * per_center, 2) pairs (center, negative).
    Each draw is uniform over non-neighbors; draws are independent, so
    repeats across pairs are possible (expected for a noise distribution).
    """
    n = g.node_count
    csr = g.adjacency()
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    # CSR rows are in order and each row's columns ascend, so the row-major
    # keys are already sorted for searchsorted
    edge_keys = rows.astype(np.int64) * n + csr.indices.astype(np.int64)
    cen = np.repeat(centers, per_center)
    out = np.empty(cen.size, dtype=np.int64)
    pending = np.arange(cen.size)
    for _ in range(200):
        if pending.size == 0:
            break
        draws = rng.integers(0, n, size=pending.size)
        keys = cen[pending] * n + draws
        if edge_keys.size:
            hit = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
            bad = (edge_keys[hit] == keys) | (draws == cen[pending])
        else:
            bad = draws == cen[pending]
        out[pending[~bad]] = draws[~bad]
        pending = pending[bad]
    if pending.size:
        raise SamplingError(
            "negative sampling failed to converge; graph too dense?")
    return np.stack([cen, out], axis=1)


def _pair_scores(z: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise dot products z[c] . z[x], gathered _SCORE_CHUNK rows at a time."""
    s = np.empty(c.size)
    for lo in range(0, c.size, _SCORE_CHUNK):
        hi = lo + _SCORE_CHUNK
        s[lo:hi] = np.einsum("ij,ij->i", z.take(c[lo:hi], axis=0),
                             z.take(x[lo:hi], axis=0))
    return s


def unsup_loss(table: EmbeddingTable, positives: np.ndarray,
               negatives: np.ndarray) -> tuple[float, np.ndarray]:
    """Skip-gram loss with negative sampling and its gradient w.r.t. Z.

    positives/negatives are (*, 2) int arrays of (center, other) rows;
    each block contributes the mean over its rows. Either may be empty.

    The epoch is array-native: every (c, x) row with coefficient k adds
    k * z[x] to dz[c] and k * z[c] to dz[x]. All these terms go through
    one sparse product: the (n, n) COO matrix with entries k at
    (target, other), over the targets [c_pos, x_pos, c_neg, x_neg] in
    that order, times z. scipy's COO product walks its entries in input
    order and adds each term, one multiply and one add, to an output row
    that starts at 0.0, the order in which four unbuffered ``add.at``
    scatters (positives by center, then by context, then negatives
    likewise) add them, so dz is bit-identical to that scatter while no
    (P, dim) array is ever built. Scores are computed _SCORE_CHUNK rows
    at a time for the same reason.
    """
    z = table.values
    loss = 0.0
    targets, others, coefs = [], [], []
    for block, positive in ((positives, True), (negatives, False)):
        if not block.size:
            continue
        c, x = block[:, 0], block[:, 1]
        s = _pair_scores(z, c, x)
        if positive:
            loss += float(np.mean(neg_log_sigmoid(s)))
            coef = (sigmoid(s) - 1.0) / len(s)
        else:
            loss += float(np.mean(neg_log_sigmoid(-s)))
            coef = sigmoid(s) / len(s)
        targets += [c, x]
        others += [x, c]
        coefs += [coef, coef]
    if not targets:
        return loss, np.zeros_like(z)
    scatter = coo_array((np.concatenate(coefs),
                         (np.concatenate(targets), np.concatenate(others))),
                        shape=(len(z), len(z)))
    return loss, scatter @ z


# -- training ------------------------------------------------------------------------


@dataclass
class EmbedResult:
    model: GinParams | GcnEmbedParams
    table: EmbeddingTable
    losses: list[float]


def train_embedding(g: Graph, cfg: EmbedConfig, seed: int) -> EmbedResult:
    rng = rng_from_seed(seed)
    if cfg.backend == "gin":
        model = GinParams.init(g.node_count, cfg.hidden_dim, cfg.layer_count, rng)
        fwd, bwd = _gin_forward_cached, _gin_backward
    elif cfg.backend == "gcn":
        model = GcnEmbedParams.init(g.node_count, cfg.hidden_dim, cfg.layer_count, rng)
        fwd, bwd = _gcn_embed_forward_cached, _gcn_embed_backward
    else:
        raise DataError(f"unknown embedding backend {cfg.backend!r}")
    opt = Adam(lr=cfg.learning_rate)
    losses = []
    for _ in range(cfg.epochs):
        positives = sample_positive_walks(g, cfg.walk, rng)
        if positives.size:
            negatives = _batch_negatives(g, positives[:, 0],
                                         cfg.negatives_per_positive, rng)
        else:
            negatives = np.empty((0, 2), dtype=np.int64)
        values, cache = fwd(model, g)
        backend = "gin" if isinstance(model, GinParams) else "gcn"
        loss, dz = unsup_loss(EmbeddingTable(values, backend), positives, negatives)
        grads = bwd(model, g, cache, dz)
        model = model.with_params(opt.step(model.param_dict(), grads))
        losses.append(loss)
    table = embedding_forward(model, g)
    return EmbedResult(model=model, table=table, losses=losses)


def train_gin(g: Graph, cfg: EmbedConfig, seed: int) -> EmbeddingTable:
    if cfg.backend != "gin":
        cfg = replace(cfg, backend="gin")
    return train_embedding(g, cfg, seed).table


# -- persistence ----------------------------------------------------------------------


def save_embedding(path: str, table: EmbeddingTable) -> None:
    meta = {"kind": "embedding", "node_count": table.node_count,
            "dim": table.dim, "backend": table.backend}
    fileio.write_blob(path, meta, {"values": table.values})


def save_embed_model(path: str, model: GinParams | GcnEmbedParams) -> None:
    if isinstance(model, GinParams):
        meta = {"kind": "embed-model", "backend": "gin",
                "node_count": model.node_count, "hidden_dim": model.hidden_dim,
                "layer_count": len(model.layers)}
    elif isinstance(model, GcnEmbedParams):
        meta = {"kind": "embed-model", "backend": "gcn",
                "node_count": model.node_count, "hidden_dim": model.hidden_dim,
                "layer_count": len(model.weights)}
    else:
        raise DataError(f"cannot save model of type {type(model).__name__}")
    fileio.write_blob(path, meta, model.param_dict())


def load_embed_model(path: str) -> GinParams | GcnEmbedParams:
    meta, arrays = fileio.read_blob(path)
    if meta.get("kind") != "embed-model":
        raise DataError(f"{path}: not an embedding-model file")
    n, h, k = meta["node_count"], meta["hidden_dim"], meta["layer_count"]
    if meta["backend"] == "gin":
        layers = [GinLayer(eps=arrays[f"{i}.eps"], w1=arrays[f"{i}.w1"],
                           b1=arrays[f"{i}.b1"], w2=arrays[f"{i}.w2"],
                           b2=arrays[f"{i}.b2"]) for i in range(k)]
        return GinParams(n, h, layers)
    if meta["backend"] == "gcn":
        return GcnEmbedParams(n, h, [arrays[f"{i}.w"] for i in range(k)],
                              [arrays[f"{i}.b"] for i in range(k)])
    raise DataError(f"{path}: unknown backend {meta['backend']!r}")
