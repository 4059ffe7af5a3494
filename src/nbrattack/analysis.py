"""What kind of nodes make good attack edits?

Node-level properties (feature similarity, degree, local clustering,
reverse-kNN rank) and community-level metrics (edge expansion,
conductance, volume, normalized cut size) are rank-correlated against
per-candidate distortion scores with Spearman's coefficient. Ties get
average ranks; p-values come from the Student-t approximation
t = r * sqrt((n-2) / (1-r^2)), with an exact permutation option for
tiny samples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtr

from .embed import EmbeddingTable
from .errors import DataError
from .graphs import Graph, k_hop_neighborhood

NODE_PROPERTIES = ("feature_similarity", "degree", "local_clustering",
                   "reverse_knn_rank")
COMMUNITY_METRICS = ("edge_expansion", "conductance", "volume",
                     "normalized_cut")


# -- node properties -----------------------------------------------------------------


def feature_similarity(g: Graph, t: int, v: int) -> float:
    """Jaccard similarity of the nonzero feature supports of t and v."""
    a = set(np.flatnonzero(g.features[t]).tolist())
    b = set(np.flatnonzero(g.features[v]).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def local_clustering(g: Graph, v: int) -> float:
    """Fraction of possible links among v's neighbors that exist."""
    nbrs = g.neighbors(v)
    d = len(nbrs)
    if d < 2:
        return 0.0
    links = int(g._neighbor_counts(nbrs)[nbrs].sum()) // 2  # each seen twice
    return 2.0 * links / (d * (d - 1))


def reverse_knn_ranks(g: Graph, embeddings: EmbeddingTable | None = None,
                      k: int = 100) -> np.ndarray:
    """Average-tied descending rank of each node's reverse-neighbor count.

    With embeddings, node u's neighbor set is its k nearest nodes in
    embedding space (k capped at node_count - 1); without, its 2-hop
    graph neighborhood. count[v] = how many other nodes include v.
    """
    n = g.node_count
    counts = np.zeros(n)
    if embeddings is not None:
        if embeddings.node_count != n:
            raise DataError("embedding table does not match the graph")
        z = embeddings.values
        kk = min(k, n - 1)
        for u in range(n):
            d = np.linalg.norm(z - z[u], axis=1)
            d[u] = np.inf
            nearest = np.lexsort((np.arange(n), d))[:kk]
            counts[nearest] += 1
    else:
        for u in range(n):
            counts[k_hop_neighborhood(g, u, 2)] += 1
        counts -= 1  # no node counts itself
    return _average_ranks(-counts)


def node_property(g: Graph, t: int, v: int, which: str,
                  embeddings: EmbeddingTable | None = None,
                  knn_k: int = 100) -> float:
    if not (0 <= t < g.node_count and 0 <= v < g.node_count):
        raise DataError(f"node ids ({t}, {v}) out of range")
    if which == "feature_similarity":
        return feature_similarity(g, t, v)
    if which == "degree":
        return float(g.degree(v))
    if which == "local_clustering":
        return local_clustering(g, v)
    if which == "reverse_knn_rank":
        return float(reverse_knn_ranks(g, embeddings, knn_k)[v])
    raise DataError(f"unknown node property {which!r}")


# -- community metrics ----------------------------------------------------------------


def _cut_and_internal(g: Graph, s: np.ndarray) -> tuple[int, int]:
    hits = g._neighbor_counts(s)
    inside = int(hits[s].sum())
    return int(hits.sum()) - inside, inside // 2


def community_metric(g: Graph, s, which: str, corrected_ncs: bool = False
                     ) -> float:
    s = np.unique(np.fromiter((int(x) for x in s), dtype=np.int64))
    if not s.size:
        raise DataError("community must be non-empty")
    if len(s) >= g.node_count:
        raise DataError("community must be a proper subset of the nodes")
    if s[0] < 0 or s[-1] >= g.node_count:
        raise DataError(f"community node {s[0] if s[0] < 0 else s[-1]} out of range")
    c, m = _cut_and_internal(g, s)
    vol = 2 * m + c
    if which == "edge_expansion":
        return c / min(len(s), g.node_count - len(s))
    if which == "conductance":
        return 0.0 if vol == 0 else c / vol
    if which == "volume":
        return float(vol)
    if which == "normalized_cut":
        if c == 0:
            return 0.0
        if corrected_ncs:
            other = 2 * (g.edge_count - m) - c  # volume of the complement
        else:
            # legacy default: counts internal edges toward the far side too
            other = 2 * (g.edge_count + m) - c
        return c * (1.0 / vol + 1.0 / other)
    raise DataError(f"unknown community metric {which!r}")


def embedding_community(table: EmbeddingTable, v: int, size: int = 50
                        ) -> list[int]:
    """v plus its `size` nearest nodes in embedding space (ties by id)."""
    n = table.node_count
    if not (0 <= v < n):
        raise DataError(f"node {v} out of range")
    d = np.linalg.norm(table.values - table.values[v], axis=1)
    d[v] = np.inf
    nearest = np.lexsort((np.arange(n), d))[:min(size, n - 1)]
    return sorted({v, *nearest.tolist()})


# -- Spearman correlation ---------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    sample_size: int
    method: str = "t-approx"


@dataclass
class PropertyRanking:
    """A property evaluated over candidate nodes, ranked descending."""

    name: str
    nodes: list[int]
    values: list[float]
    ranks: np.ndarray  # average-tied, 1 = largest value

    @classmethod
    def build(cls, name: str, nodes, values) -> "PropertyRanking":
        nodes = [int(v) for v in nodes]
        values = [float(x) for x in values]
        if len(nodes) != len(values):
            raise DataError("nodes/values length mismatch")
        return cls(name=name, nodes=nodes, values=values,
                   ranks=_average_ranks([-x for x in values]))


def _average_ranks(vals) -> np.ndarray:
    """1-based ranks in ascending order of value; ties share the mean rank."""
    vals = np.asarray(vals, dtype=np.float64)
    order = np.argsort(vals, kind="stable")
    ranks = np.empty(len(vals))
    i = 0
    sv = vals[order]
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0:
        raise DataError("constant input list: correlation undefined")
    return float(np.sum(a * b) / denom)


def spearman(xs, ys, exact: bool = False) -> CorrelationResult:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DataError(f"mismatched lists: {xs.shape} vs {ys.shape}")
    n = len(xs)
    if n < 3:
        raise DataError(f"need at least 3 samples, got {n}")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    r = _pearson(rx, ry)
    if exact:
        if n > 10:
            raise DataError(f"exact permutation p-value limited to n <= 10, got {n}")
        hits = 0
        total = 0
        for perm in itertools.permutations(range(n)):
            rp = _pearson(rx, ry[list(perm)])
            if abs(rp) >= abs(r) - 1e-12:
                hits += 1
            total += 1
        return CorrelationResult(coefficient=r, p_value=hits / total,
                                 sample_size=n, method="exact-permutation")
    if abs(r) >= 1.0:
        return CorrelationResult(coefficient=r, p_value=0.0, sample_size=n)
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return CorrelationResult(coefficient=r, p_value=p, sample_size=n)


# -- the study -----------------------------------------------------------------------------


@dataclass
class TargetCandidates:
    """Per-target study input: candidate endpoints and their distortion."""

    target: int
    nodes: list[int]
    distortions: list[float]
    extra: dict[str, list[float]] = field(default_factory=dict)


def correlation_study(g: Graph, per_target: list[TargetCandidates],
                      properties=NODE_PROPERTIES,
                      embeddings: EmbeddingTable | None = None,
                      knn_k: int = 100, exact: bool = False,
                      min_candidates: int = 3) -> list[dict]:
    """Spearman-correlate each property with distortion, per target, then
    aggregate mean/std of the coefficients across targets."""
    knn_cache = None
    rows = []
    names = list(properties)
    extra_names = sorted({name for tc in per_target for name in tc.extra})
    per_property: dict[str, list[CorrelationResult]] = {
        name: [] for name in [*names, *extra_names]}
    for tc in per_target:
        if len(tc.nodes) < min_candidates:
            continue
        if len(tc.nodes) != len(tc.distortions):
            raise DataError(
                f"target {tc.target}: {len(tc.nodes)} nodes but "
                f"{len(tc.distortions)} distortion values")
        for name in names:
            if name == "reverse_knn_rank":
                if knn_cache is None:
                    knn_cache = reverse_knn_ranks(g, embeddings, knn_k)
                vals = [float(knn_cache[v]) for v in tc.nodes]
            else:
                vals = [node_property(g, tc.target, v, name, embeddings, knn_k)
                        for v in tc.nodes]
            try:
                per_property[name].append(
                    spearman(vals, tc.distortions, exact=exact))
            except DataError:
                continue  # constant list on this target; nothing to rank
        for name, vals in tc.extra.items():
            if len(vals) != len(tc.nodes):
                raise DataError(
                    f"target {tc.target}: extra property {name!r} has "
                    f"{len(vals)} values for {len(tc.nodes)} nodes")
            try:
                per_property[name].append(
                    spearman(vals, tc.distortions, exact=exact))
            except DataError:
                continue
    for name in [*names, *extra_names]:
        results = per_property[name]
        if not results:
            rows.append({"property": name, "targets_used": 0,
                         "mean_coefficient": None, "std_coefficient": None,
                         "mean_p_value": None})
            continue
        coefs = np.array([r.coefficient for r in results])
        pvals = np.array([r.p_value for r in results])
        rows.append({
            "property": name,
            "targets_used": len(results),
            "mean_coefficient": float(coefs.mean()),
            "std_coefficient": float(coefs.std()),
            "mean_p_value": float(pvals.mean()),
        })
    return rows
