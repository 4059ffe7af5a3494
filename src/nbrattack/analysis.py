"""What kind of nodes make good attack edits?

Node-level properties (feature similarity, degree, local clustering,
reverse-kNN rank), each one vector over all nodes, and community-level
metrics (edge expansion, conductance, volume, normalized cut size) are
rank-correlated against per-candidate distortion scores with Spearman's
coefficient. Ties get
average ranks; p-values come from the Student-t approximation
t = r * sqrt((n-2) / (1-r^2)), with an exact permutation option for
tiny samples.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import stdtr

from .embed import EmbeddingTable
from .errors import DataError
from .graphs import Graph

NODE_PROPERTIES = ("feature_similarity", "degree", "local_clustering",
                   "reverse_knn_rank")
COMMUNITY_METRICS = ("edge_expansion", "conductance", "volume",
                     "normalized_cut")
MIN_CANDIDATES = 3  # fewest samples Spearman's coefficient takes


# -- node properties -----------------------------------------------------------------


def feature_similarity(g: Graph, t: int) -> np.ndarray:
    """Jaccard similarity of t's nonzero feature support with each node's;
    two empty supports count as identical (1.0)."""
    support = (g.features != 0).astype(np.int64)
    common = support @ support[t]
    union = support.sum(axis=1) + support[t].sum() - common
    return np.divide(common, union, out=np.ones(g.node_count), where=union > 0)


def local_clustering(g: Graph) -> np.ndarray:
    """Per node, the fraction of possible links among its neighbors that
    exist: a row of (A @ A) * A counts each such link twice."""
    a = g.adjacency()
    d = np.diff(a.indptr).astype(np.int64)
    twice_links = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    return np.divide(twice_links, d * (d - 1), out=np.zeros(g.node_count),
                     where=d >= 2)


def _nearest(z: np.ndarray, u: int, k: int) -> np.ndarray:
    """The k rows of z nearest to row u by L2 distance, u excluded, ties at
    the k-th distance broken by ascending index; in no particular order."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    d = np.linalg.norm(z - z[u], axis=1)
    d[u] = np.inf
    kth = np.partition(d, k - 1)[k - 1]
    below = np.flatnonzero(d < kth)
    return np.concatenate([below, np.flatnonzero(d == kth)[:k - below.size]])


def reverse_knn_ranks(g: Graph, embeddings: EmbeddingTable | None = None,
                      k: int = 100) -> np.ndarray:
    """Average-tied descending rank of each node's reverse-neighbor count.

    With embeddings, node u's neighbor set is its k nearest nodes in
    embedding space (k capped at node_count - 1); without, its 2-hop
    graph neighborhood. count[v] = how many other nodes include v.
    """
    n = g.node_count
    if embeddings is not None:
        if embeddings.node_count != n:
            raise DataError("embedding table does not match the graph")
        kk = min(k, n - 1)
        counts = np.zeros(n)  # row by row: blocked rows ran slower at n = 1k
        for u in range(n):
            counts[_nearest(embeddings.values, u, kk)] += 1
    else:
        # 2-hop reach is symmetric: v is in as many 2-hop hoods as its own holds
        a_i = g.adjacency() + sp.identity(n, format="csr")
        counts = np.diff((a_i @ a_i).indptr) - 1
    return _average_ranks(-counts)


# -- community metrics ----------------------------------------------------------------


def _cut_and_internal(g: Graph, s: np.ndarray) -> tuple[int, int]:
    hits = g._neighbor_counts(s)
    inside = int(hits[s].sum())
    return int(hits.sum()) - inside, inside // 2


def community_metric(g: Graph, s, which: str, corrected_ncs: bool = False
                     ) -> float:
    s = np.unique(np.fromiter(s, dtype=np.int64))
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
    """v plus its `size` nearest nodes in embedding space (ties by id),
    sorted. At most n - 2 nodes join v, so the community stays a proper
    subset of the n nodes, as ``community_metric`` requires."""
    n = table.node_count
    if not (0 <= v < n):
        raise DataError(f"node {v} out of range")
    return sorted([v, *_nearest(table.values, v, min(size, n - 2)).tolist()])


# -- Spearman correlation ---------------------------------------------------------------


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    sample_size: int
    method: str = "t-approx"


def _average_ranks(vals) -> np.ndarray:
    """1-based ranks in ascending order of value; ties share the mean rank."""
    vals = np.asarray(vals, dtype=np.float64)
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    first = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])  # of each tie run
    last = np.append(first[1:], len(sv)) - 1
    ranks = np.empty(len(sv))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
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
                      knn_k: int = 100, exact: bool = False) -> list[dict]:
    """Spearman-correlate each property with distortion, per target, then
    aggregate mean/std of the coefficients across targets. A target with
    fewer than MIN_CANDIDATES candidates is skipped, and so is a property
    whose values are constant on a target."""
    names = list(properties)
    for name in names:
        if name not in NODE_PROPERTIES:
            raise DataError(f"unknown node property {name!r}")
    n = g.node_count
    vectors = {}  # the properties that do not depend on the target
    if "degree" in names:
        vectors["degree"] = np.diff(g.adjacency().indptr)
    if "local_clustering" in names:
        vectors["local_clustering"] = local_clustering(g)
    if "reverse_knn_rank" in names:
        vectors["reverse_knn_rank"] = reverse_knn_ranks(g, embeddings, knn_k)
    extra_names = sorted({name for tc in per_target for name in tc.extra})
    per_property: dict[str, list[CorrelationResult]] = {
        name: [] for name in [*names, *extra_names]}
    for tc in per_target:
        ids = np.asarray([tc.target, *tc.nodes])
        if ids.dtype.kind not in "iu" or np.any((ids < 0) | (ids >= n)):
            raise DataError(f"target {tc.target}: node ids must be integers "
                            f"in [0, {n})")
        nodes = ids[1:]
        if len(nodes) < MIN_CANDIDATES:
            continue
        if len(nodes) != len(tc.distortions):
            raise DataError(
                f"target {tc.target}: {len(nodes)} nodes but "
                f"{len(tc.distortions)} distortion values")
        columns = [(name, vectors[name][nodes] if name in vectors
                    else feature_similarity(g, tc.target)[nodes])
                   for name in names]
        for name, vals in tc.extra.items():
            if len(vals) != len(nodes):
                raise DataError(
                    f"target {tc.target}: extra property {name!r} has "
                    f"{len(vals)} values for {len(nodes)} nodes")
            columns.append((name, vals))
        for name, vals in columns:
            try:
                per_property[name].append(
                    spearman(vals, tc.distortions, exact=exact))
            except DataError:
                continue  # constant list on this target; nothing to rank
    rows = []
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
