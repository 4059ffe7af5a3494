"""Undirected attributed graphs, edge edits and neighborhood distortion.

A graph's structure is one binary CSR adjacency with sorted rows; no
dense n-by-n array and no per-node Python set is ever materialized.
Neighbor rows and k-hop neighborhoods are sorted int64 arrays.

Graphs are structurally immutable. A root, made by ``Graph(...)``, builds
its CSR from its edge list. Applying an edit returns a new graph that
shares the node features and records a base, a graph whose CSR is built,
plus its net edge flips since that base. It answers ``has_edge``,
``degree``, ``neighbors``, ``edges`` and ``k_hop_neighborhood`` by reading
the base's CSR through those few flips. Its first ``adjacency()`` call
splices: it copies the base's arrays with the rows the flips touch
replaced, with no Python loop over the other nodes, and then lets the
base go. Deriving from a graph that has not spliced yet hands on that
graph's base with one more flip, so a base is always a graph with a
built CSR and no chain of graphs is kept alive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NoCandidatesError

ADD = "add"
DELETE = "delete"


@dataclass(frozen=True, order=True)
class EdgeEdit:
    """A single undirected edge flip; endpoints stored with u < v."""

    u: int
    v: int
    sign: str  # ADD or DELETE

    def __post_init__(self):
        if self.u == self.v:
            raise DataError(f"self-loop edit ({self.u}, {self.v})")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)
        if self.sign not in (ADD, DELETE):
            raise DataError(f"bad edit sign {self.sign!r}")


class Graph:
    """Undirected graph with float64 node features and optional int labels;
    neighbor rows and neighborhoods come back as sorted int64 arrays.

    ``_adj_csr`` is the binary CSR adjacency, or None until a derived graph
    splices; ``_base`` is then the graph whose CSR it reads and ``_flips``
    its net flips since that base, a dict from (u, v), u < v, to True for
    an added edge and False for a deleted one.
    """

    __slots__ = ("node_count", "features", "labels", "_edge_count",
                 "_adj_csr", "_norm_adj_csr", "_base", "_flips", "__weakref__")

    def __init__(self, node_count: int, edges, features: np.ndarray,
                 labels: np.ndarray | None = None):
        if node_count <= 0:
            raise DataError(f"node_count must be positive, got {node_count}")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != node_count:
            raise DataError(
                f"features shape {features.shape} does not match {node_count} nodes")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain non-finite values")
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.shape != (node_count,):
                raise DataError(
                    f"labels shape {labels.shape} does not match {node_count} nodes")
        indptr, indices = _csr_arrays(edges, node_count)
        self.node_count = node_count
        self.features = features
        self.features.flags.writeable = False
        self.labels = labels
        if labels is not None:
            self.labels.flags.writeable = False
        self._edge_count = len(indices) // 2
        self._adj_csr = _binary_csr(indptr, indices, node_count)
        self._norm_adj_csr = None
        self._base = None
        self._flips = {}

    # -- basic queries ---------------------------------------------------------

    def _csr(self) -> sp.csr_matrix:
        """The CSR that queries read through ``_flips``."""
        return self._base._adj_csr if self._adj_csr is None else self._adj_csr

    def neighbors(self, v: int) -> np.ndarray:
        """v's neighbors as a read-only, sorted int64 array."""
        a = self._csr()
        row = a.indices[a.indptr[v]:a.indptr[v + 1]].astype(np.int64)
        flipped = [y if x == v else x for x, y in self._flips if v in (x, y)]
        if flipped:  # each net flip adds a missing neighbor or drops one
            row = np.setxor1d(row, flipped, assume_unique=True)
        row.flags.writeable = False
        return row

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        added = self._flips.get((u, v) if u < v else (v, u))
        if added is None:
            a = self._csr()
            row = a.indices[a.indptr[u]:a.indptr[u + 1]]
            i = row.searchsorted(v)
            added = i < len(row) and row[i] == v
        return bool(added)

    def _neighbor_counts(self, nodes: np.ndarray) -> np.ndarray:
        """For every node, how many of the distinct `nodes` are its
        neighbors: one gather over their rows, then a step per flip."""
        a = self._csr()
        starts = a.indptr[nodes].astype(np.int64)  # int64 arithmetic is faster
        counts = a.indptr[nodes + 1] - starts
        shift = np.repeat(starts - counts.cumsum() + counts, counts)
        hits = np.bincount(a.indices[shift + np.arange(len(shift))],
                           minlength=self.node_count)
        if self._flips:
            member = np.zeros(self.node_count, dtype=bool)
            member[nodes] = True
            for (x, y), added in self._flips.items():
                if member[x]:
                    hits[y] += 1 if added else -1
                if member[y]:
                    hits[x] += 1 if added else -1
        return hits

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def edges(self):
        """Iterate edges as (u, v) with u < v, sorted."""
        n = self.node_count
        a = self._csr()
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        upper = rows < a.indices
        keys = rows[upper] * n + a.indices[upper]  # row-major, so sorted
        if self._flips:
            keys = np.setxor1d(keys, [x * n + y for x, y in self._flips],
                               assume_unique=True)
        u, v = np.divmod(keys, n)
        return zip(u.tolist(), v.tolist())

    # -- sparse views ----------------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """Binary adjacency as CSR float64 with sorted row indices.

        A derived graph splices on the first call: each row of the base's
        CSR that a flip touches becomes its overlay row, and the base goes.
        """
        if self._adj_csr is None:
            a = self._base._adj_csr
            touched = sorted({x for pair in self._flips for x in pair})
            parts, prev = [], 0
            for r in touched:
                parts += [a.indices[prev:a.indptr[r]], self.neighbors(r)]
                prev = a.indptr[r + 1]
            parts.append(a.indices[prev:])
            degrees = np.diff(a.indptr)
            degrees[touched] = [len(row) for row in parts[1::2]]
            indptr = np.concatenate([[0], np.cumsum(degrees)])
            self._adj_csr = _binary_csr(indptr, np.concatenate(parts),
                                        self.node_count)
            self._base = None
            self._flips = {}
        return self._adj_csr

    def normalized_adjacency(self) -> sp.csr_matrix:
        """Symmetrically normalized adjacency with self-loops:
        D^-1/2 (A + I) D^-1/2, cached.

        Entry (i, j) is d[i] * d[j] with d = 1/sqrt(deg + 1), the value and
        the sorted index order that the product D @ (A + I) @ D gives.
        """
        if self._norm_adj_csr is None:
            n = self.node_count
            indptr, indices = _self_loop_structure(self)
            counts = np.diff(indptr)
            d = 1.0 / np.sqrt(counts.astype(np.float64))
            data = d[np.repeat(np.arange(n), counts)] * d[indices]
            self._norm_adj_csr = sp.csr_matrix((data, indices, indptr),
                                               shape=(n, n))
        return self._norm_adj_csr


def _self_loop_structure(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of A + I: each node inserted into its own sorted
    adjacency row, the structure of ``normalized_adjacency``."""
    a = g.adjacency()
    n = g.node_count
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    below = np.bincount(rows[a.indices < rows], minlength=n)
    indices = np.insert(a.indices, a.indptr[:-1] + below, np.arange(n))
    return a.indptr + np.arange(n + 1), indices


def _csr_arrays(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of an edge list: a generator, a list of pairs or an
    (m, 2) integer array. Repeated and reversed pairs count once."""
    try:
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    except ValueError:
        raise DataError("edges must be (u, v) pairs") from None
    if pairs.size == 0:
        pairs = np.zeros((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DataError("edges must be (u, v) pairs")
    if pairs.dtype.kind not in "iu":
        raise DataError(f"edge endpoints must be integers, got {pairs.dtype}")
    u, v = pairs.astype(np.int64).T
    bad = np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.size:
        bu, bv = int(u[bad[0]]), int(v[bad[0]])
        raise DataError(f"self-loop ({bu}, {bv})" if bu == bv else
                        f"edge ({bu}, {bv}) out of range for {n} nodes")
    lo, hi = np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), n)
    rows, cols = np.divmod(np.sort(np.concatenate([lo * n + hi, hi * n + lo])), n)
    return np.searchsorted(rows, np.arange(n + 1)), cols


def _binary_csr(indptr, indices, n: int) -> sp.csr_matrix:
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def k_hop_neighborhood(g: Graph, v: int, k: int) -> np.ndarray:
    """All nodes at hop distance <= k from v, v included, as a sorted int64
    array."""
    if not (0 <= v < g.node_count):
        raise DataError(f"node {v} out of range")
    if k < 0:
        raise DataError(f"negative hop count {k}")
    if k == 0:
        return np.array([v], dtype=np.int64)
    reached = np.zeros(g.node_count, dtype=bool)
    reached[v] = True
    frontier = g.neighbors(v)
    for _ in range(k - 1):
        reached[frontier] = True
        frontier = np.flatnonzero((g._neighbor_counts(frontier) > 0) & ~reached)
    reached[frontier] = True
    return np.flatnonzero(reached)


def apply_edit(g: Graph, edit: EdgeEdit) -> Graph:
    """Return a new graph with one edge flipped. It shares the features and
    reads the parent's CSR through its flips, or the parent's base if the
    parent has not spliced."""
    u, v = edit.u, edit.v
    if not (0 <= u < g.node_count and 0 <= v < g.node_count):
        raise DataError(f"edit ({u}, {v}) out of range")
    has = g.has_edge(u, v)
    if edit.sign == ADD and has:
        raise DataError(f"cannot add existing edge ({u}, {v})")
    if edit.sign == DELETE and not has:
        raise DataError(f"cannot delete absent edge ({u}, {v})")
    flips = dict(g._flips)
    if flips.pop((u, v), None) is None:  # a second flip of a pair undoes it
        flips[(u, v)] = edit.sign == ADD
    child = object.__new__(Graph)
    child.node_count = g.node_count
    child.features = g.features
    child.labels = g.labels
    child._edge_count = g._edge_count + (1 if edit.sign == ADD else -1)
    child._adj_csr = child._norm_adj_csr = None
    child._base = g if g._base is None else g._base
    child._flips = flips
    return child


def apply_edits(g: Graph, edits) -> Graph:
    for e in edits:
        g = apply_edit(g, e)
    return g


def graph_distance(a: Graph, b: Graph) -> int:
    """Number of edges present in exactly one of the two graphs: the net
    flip count when one graph is the other's overlay base, else one
    comparison of their CSR adjacencies."""
    if a.node_count != b.node_count:
        raise DataError(
            f"node count mismatch: {a.node_count} vs {b.node_count}")
    if b._base is a:
        return len(b._flips)
    if a._base is b:
        return len(a._flips)
    return (a.adjacency() != b.adjacency()).nnz // 2


def _jaccard_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Jaccard distance of two sorted neighborhoods of one center."""
    common = len(np.intersect1d(x, y, assume_unique=True))
    return 1.0 - common / (len(x) + len(y) - common)


def neighborhood_distortion(a: Graph, b: Graph, v: int, k: int) -> float:
    """Jaccard distance between the k-hop neighborhoods of v in a and b."""
    if a.node_count != b.node_count:
        raise DataError(
            f"node count mismatch: {a.node_count} vs {b.node_count}")
    return _jaccard_distance(k_hop_neighborhood(a, v, k),
                             k_hop_neighborhood(b, v, k))


def connected_components(g: Graph) -> list[list[int]]:
    """Node lists of the components, each sorted, ordered by first node."""
    # imported here: csgraph adds ~8 MB of RSS that only this function needs
    from scipy.sparse.csgraph import connected_components as label_components
    _, labels = label_components(g.adjacency(), directed=False)
    order = np.argsort(labels, kind="stable")
    comps = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return sorted((c.tolist() for c in comps), key=lambda c: c[0])


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Restrict g to its largest component (ties: smallest contained node id).

    Returns (subgraph, mapping) where mapping sends old node ids to new
    contiguous ids. Features/labels rows are re-indexed accordingly.
    """
    comps = connected_components(g)
    best = max(comps, key=lambda c: (len(c), -c[0]))
    mapping = {old: new for new, old in enumerate(best)}
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()
             if u in mapping and v in mapping]
    features = np.array(g.features[best], dtype=np.float64)
    labels = None if g.labels is None else np.array(g.labels[best])
    sub = Graph(len(best), edges, features, labels)
    return sub, mapping


def candidate_edits(g: Graph, target: int, accessible=None) -> np.ndarray:
    """Other endpoints of all single edge flips incident on `target`: an
    int64 array in ascending order, without the target. `accessible`
    restricts the pool; ``flip_edit`` gives a candidate's signed edit."""
    if not (0 <= target < g.node_count):
        raise DataError(f"target {target} out of range")
    if accessible is None:
        pool = np.arange(g.node_count, dtype=np.int64)
    else:
        pool = sorted(set(int(x) for x in accessible))
        for x in pool:
            if not (0 <= x < g.node_count):
                raise DataError(f"accessible node {x} out of range")
        pool = np.array(pool, dtype=np.int64)
    others = pool[pool != target]
    if others.size == 0:
        raise NoCandidatesError(f"no admissible edits for target {target}")
    return others


def flip_edit(g: Graph, t: int, other) -> EdgeEdit:
    """DELETE (t, other) if g has that edge, else ADD it. Endpoints become
    Python ints, as edit lists are written with plain ``json.dump``."""
    t, other = int(t), int(other)
    return EdgeEdit(t, other, DELETE if g.has_edge(t, other) else ADD)
