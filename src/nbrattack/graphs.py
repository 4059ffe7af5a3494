"""Undirected attributed graphs, edge edits and neighborhood distortion.

Graphs are structurally immutable: applying an edit returns a new Graph
that shares node features and all untouched adjacency sets with its
parent. Adjacency is kept as per-node frozensets, which answer neighbor
and edge queries, plus a lazily built CSR matrix for message passing;
no dense n-by-n array is ever materialized.

A derived graph does not rebuild its CSR from the frozensets. It records
an ancestor, a graph whose CSR is built or can be built from scratch
(a root made by ``Graph(...)``), and the edge flips made since that
ancestor. Its first ``adjacency()`` call splices the net flips into the
ancestor's CSR arrays, which costs numpy work proportional to the edit
rather than a Python loop over every node, and then lets the ancestor
go. Deriving from a graph whose CSR is not built yet (and that is not a
root) hands on that graph's ancestor with the flips extended by one. An
ancestor is therefore always a root or a graph with a built CSR, never
a graph that itself waits on another, so no chain of graphs is kept
alive.
"""
from __future__ import annotations

from collections import deque
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
    """Undirected graph with float64 node features and optional int labels.

    ``_base`` and ``_flips`` hold a derived graph's ancestor and the edge
    flips since it, until the first ``adjacency()`` call splices them
    into the ancestor's CSR; a root and a graph whose CSR is built have
    ``_base is None``.
    """

    __slots__ = ("node_count", "features", "labels", "_nbrs", "_edge_count",
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
        nbrs = [set() for _ in range(node_count)]
        edge_count = 0
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise DataError(f"self-loop ({u}, {v})")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise DataError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            if v not in nbrs[u]:
                nbrs[u].add(v)
                nbrs[v].add(u)
                edge_count += 1
        self.node_count = node_count
        self.features = features
        self.features.flags.writeable = False
        self.labels = labels
        if labels is not None:
            self.labels.flags.writeable = False
        self._nbrs = [frozenset(s) for s in nbrs]
        self._edge_count = edge_count
        self._adj_csr = None
        self._norm_adj_csr = None
        self._base = None
        self._flips = ()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _from_parts(cls, node_count, nbrs, edge_count, features, labels,
                    base: "Graph", flips: tuple) -> "Graph":
        g = object.__new__(cls)
        g.node_count = node_count
        g.features = features
        g.labels = labels
        g._nbrs = nbrs
        g._edge_count = edge_count
        g._adj_csr = None
        g._norm_adj_csr = None
        g._base = base
        g._flips = flips
        return g

    # -- basic queries ---------------------------------------------------------

    def neighbors(self, v: int) -> frozenset:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return len(self._nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._nbrs[u]

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def edges(self):
        """Iterate edges as (u, v) with u < v, sorted."""
        for u in range(self.node_count):
            for v in sorted(self._nbrs[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset:
        return frozenset((u, v) for u, v in self.edges())

    # -- sparse views ----------------------------------------------------------

    def adjacency(self) -> sp.csr_matrix:
        """Binary adjacency as CSR float64 with sorted row indices (cached).

        A derived graph splices its flips into its ancestor's CSR and then
        drops the ancestor; a root builds from its neighbor sets.
        """
        if self._adj_csr is None:
            n = self.node_count
            if self._base is None:
                indptr = np.zeros(n + 1, dtype=np.int64)
                indices = []
                for u in range(n):
                    row = sorted(self._nbrs[u])
                    indices.extend(row)
                    indptr[u + 1] = indptr[u] + len(row)
                indices = np.asarray(indices, dtype=np.int64)
            else:
                indptr, indices = _splice_flips(self._base.adjacency(),
                                                self._flips)
                self._base = None
                self._flips = ()
            data = np.ones(len(indices), dtype=np.float64)
            self._adj_csr = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        return self._adj_csr

    def normalized_adjacency(self) -> sp.csr_matrix:
        """Symmetrically normalized adjacency with self-loops:
        D^-1/2 (A + I) D^-1/2, cached.

        Entry (i, j) is d[i] * d[j] with d = 1/sqrt(deg + 1), the value and
        the sorted index order that the product D @ (A + I) @ D gives.
        """
        if self._norm_adj_csr is None:
            a = self.adjacency()
            n = self.node_count
            counts = np.diff(a.indptr)
            rows = np.repeat(np.arange(n), counts)
            below = np.bincount(rows[a.indices < rows], minlength=n)
            indices = np.insert(a.indices, a.indptr[:-1] + below, np.arange(n))
            indptr = a.indptr + np.arange(n + 1)
            d = 1.0 / np.sqrt((counts + 1).astype(np.float64))
            data = d[np.repeat(np.arange(n), counts + 1)] * d[indices]
            self._norm_adj_csr = sp.csr_matrix((data, indices, indptr),
                                               shape=(n, n))
        return self._norm_adj_csr


def _splice_flips(csr: sp.csr_matrix, flips) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of `csr` with the net effect of `flips` applied.

    `flips` is a valid edit sequence from the graph `csr` describes, so a
    pair flipped an even number of times is unchanged and one flipped an
    odd number of times ends as its last flip says. Row indices stay
    sorted.
    """
    net = {}
    for e in flips:
        key = (e.u, e.v)
        if net.pop(key, None) is None:
            net[key] = e.sign == ADD
    pairs = np.array(list(net), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    add = np.tile(np.fromiter(net.values(), dtype=bool, count=len(net)), 2)
    order = np.lexsort((cols, rows))
    rows, cols, add = rows[order], cols[order], add[order]
    indptr, indices = csr.indptr, csr.indices
    pos = np.array([indptr[r] + np.searchsorted(indices[indptr[r]:indptr[r + 1]], c)
                    for r, c in zip(rows.tolist(), cols.tolist())], dtype=np.int64)
    del_pos = pos[~add]
    ins_pos = pos[add]
    kept = np.delete(indices, del_pos)
    # an insertion point moves left by the deletions before it
    ins_pos -= np.searchsorted(del_pos, ins_pos)
    new_indices = np.insert(kept, ins_pos, cols[add])
    shift = np.zeros(len(indptr), dtype=np.int64)
    np.add.at(shift, rows + 1, np.where(add, 1, -1))
    return indptr + np.cumsum(shift), new_indices


def k_hop_neighborhood(g: Graph, v: int, k: int) -> frozenset:
    """All nodes at hop distance <= k from v, including v itself."""
    if not (0 <= v < g.node_count):
        raise DataError(f"node {v} out of range")
    if k < 0:
        raise DataError(f"negative hop count {k}")
    seen = {v}
    frontier = deque([(v, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == k:
            continue
        for nb in g.neighbors(node):
            if nb not in seen:
                seen.add(nb)
                frontier.append((nb, depth + 1))
    return frozenset(seen)


def apply_edit(g: Graph, edit: EdgeEdit) -> Graph:
    """Return a new graph with one edge flipped; shares untouched state."""
    u, v = edit.u, edit.v
    if not (0 <= u < g.node_count and 0 <= v < g.node_count):
        raise DataError(f"edit ({u}, {v}) out of range")
    has = g.has_edge(u, v)
    if edit.sign == ADD and has:
        raise DataError(f"cannot add existing edge ({u}, {v})")
    if edit.sign == DELETE and not has:
        raise DataError(f"cannot delete absent edge ({u}, {v})")
    nbrs = list(g._nbrs)
    if edit.sign == ADD:
        nbrs[u] = g._nbrs[u] | {v}
        nbrs[v] = g._nbrs[v] | {u}
        edge_count = g._edge_count + 1
    else:
        nbrs[u] = g._nbrs[u] - {v}
        nbrs[v] = g._nbrs[v] - {u}
        edge_count = g._edge_count - 1
    if g._base is None:  # g has a CSR or can build one from scratch
        base, flips = g, (edit,)
    else:
        base, flips = g._base, g._flips + (edit,)
    return Graph._from_parts(g.node_count, nbrs, edge_count, g.features,
                             g.labels, base, flips)


def apply_edits(g: Graph, edits) -> Graph:
    for e in edits:
        g = apply_edit(g, e)
    return g


def graph_distance(a: Graph, b: Graph) -> int:
    """Number of edges present in exactly one of the two graphs."""
    if a.node_count != b.node_count:
        raise DataError(
            f"node count mismatch: {a.node_count} vs {b.node_count}")
    dist = 0
    for u in range(a.node_count):
        dist += len(a._nbrs[u] ^ b._nbrs[u])
    return dist // 2


def neighborhood_distortion(a: Graph, b: Graph, v: int, k: int) -> float:
    """Jaccard distance between the k-hop neighborhoods of v in a and b."""
    if a.node_count != b.node_count:
        raise DataError(
            f"node count mismatch: {a.node_count} vs {b.node_count}")
    na = k_hop_neighborhood(a, v, k)
    nb = k_hop_neighborhood(b, v, k)
    union = len(na | nb)
    if union == 0:
        return 0.0
    return 1.0 - len(na & nb) / union


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.node_count
    comps = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in g.neighbors(node):
                if not seen[nb]:
                    seen[nb] = True
                    comp.append(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


def largest_connected_component(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Restrict g to its largest component (ties: smallest contained node id).

    Returns (subgraph, mapping) where mapping sends old node ids to new
    contiguous ids. Features/labels rows are re-indexed accordingly.
    """
    comps = connected_components(g)
    if not comps:
        raise DataError("empty graph has no components")
    best = max(comps, key=lambda c: (len(c), -c[0]))
    mapping = {old: new for new, old in enumerate(best)}
    edges = [(mapping[u], mapping[v]) for u, v in g.edges()
             if u in mapping and v in mapping]
    features = np.array(g.features[best], dtype=np.float64)
    labels = None if g.labels is None else np.array(g.labels[best])
    sub = Graph(len(best), edges, features, labels)
    return sub, mapping


def candidate_edits(g: Graph, target: int, accessible=None) -> list[EdgeEdit]:
    """All single edge flips incident on `target`, sorted by the other
    endpoint's id. `accessible` restricts the set of other endpoints."""
    if not (0 <= target < g.node_count):
        raise DataError(f"target {target} out of range")
    if accessible is None:
        pool = range(g.node_count)
    else:
        pool = sorted(set(int(x) for x in accessible))
        for x in pool:
            if not (0 <= x < g.node_count):
                raise DataError(f"accessible node {x} out of range")
    out = []
    for other in pool:
        if other == target:
            continue
        sign = DELETE if g.has_edge(target, other) else ADD
        out.append(EdgeEdit(min(target, other), max(target, other), sign))
    if not out:
        raise NoCandidatesError(f"no admissible edits for target {target}")
    return out
