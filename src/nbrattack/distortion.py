"""Embedding-space distortion of a node's neighborhood.

Both distances are measured in the perturbed graph's embedding space:
the score compares how far the target sits from its ORIGINAL k-hop
neighborhood versus its PERTURBED one, using one table Z computed on
the perturbed graph. A positive value means the edits pushed the target
away from where it used to live.

Two scorers give the distortion of every single flip (t, v) of one
target, in ``candidate_edits`` order:

- ``single_flip_distortions`` splices each flipped graph and re-embeds
  it in full. It is the exact scorer: the reference for the batched
  one, what ``greedy_attack`` runs for a callable (retraining) model,
  and what a frozen-model greedy re-runs on the few flips that the
  batched scorer puts within rounding of its maximum.
- ``flip_distortions`` patches one base forward (``flip_base``) instead,
  for all candidates of a chunk at once. Both backends compute each
  layer as ``lin_i = P_i X_i + b_i`` and ``H_i = row_map_i(lin_i)``, with
  ``X_i = H_{i-1} W_i``. For GIN, ``P_i = (1 + eps_i) I + A`` and a flip
  changes P at (t, v) and (v, t). For GCN, ``P = S``, and a flip changes
  the rows and columns t and v of S, because it changes two degrees.
  Layer i then changes ``dlin_i = P dX_i + dP X'_i``: rows t and v at
  the first GIN layer, or the closed neighborhoods of t and v for GCN,
  and one hop more per later layer. The changes are flat (candidate,
  row) arrays that gather over the CSR and add up by a sorted segment
  sum, so no flipped graph is spliced and no candidate runs a full
  forward. The distortion then reads t's patched row and the patched
  rows of both hoods. The perturbed hoods come from
  ``graphs.flip_neighborhoods``: CSR row gathers, one per hop, for all
  added edges at once, and a BFS on an ``apply_edit`` overlay only for
  each of the ~deg(t) deletions. ``analyze`` and each step of a
  frozen-model ``greedy_attack`` run it. ``flip_tables`` gives the
  patched full tables.

The DQN reward reads the two hoods its episode chain already holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embed import (EmbeddingTable, GcnEmbedParams, GinParams,
                    _gcn_embed_forward_cached, _gin_forward_cached,
                    embedding_forward)
from .errors import DataError
from .graphs import (ADD, DELETE, EdgeEdit, Graph, _row_entries,
                     _self_loop_structure, apply_edit, candidate_edits,
                     flip_edit, flip_neighborhoods, k_hop_neighborhood)
from .numerics import relu

# Candidates that flip_distortions and flip_tables patch at once. The
# scratch arrays of a chunk grow with it (about 150 kB per candidate on a
# 1k-node graph of degree 16 at k = 2), so the chunk bounds their memory.
_FLIP_CHUNK = 32


@dataclass(frozen=True)
class DistortionScore:
    d_orig: float  # mean L2 from target to original neighborhood
    d_pert: float  # mean L2 from target to perturbed neighborhood
    value: float  # d_orig - d_pert


def mean_l2_to_set(table: EmbeddingTable, t: int, node_set) -> float:
    """Mean L2 distance from t's embedding to the embeddings of node_set,
    a neighborhood array or any iterable of node ids, summed in its order.

    t itself is excluded (it is always inside its own neighborhood and
    would only dilute the mean with zeros). Empty set -> 0.0.
    """
    if not (0 <= t < table.node_count):
        raise DataError(f"node {t} out of range for table of {table.node_count}")
    if not isinstance(node_set, np.ndarray):  # np.asarray(a set) is 0-d
        node_set = np.fromiter(node_set, dtype=np.int64)
    others = node_set[node_set != t]
    if others.size == 0:
        return 0.0
    if others.min() < 0 or others.max() >= table.node_count:
        raise DataError("node set contains ids outside the table")
    diffs = table.values[others] - table.values[t]
    return float(np.mean(np.sqrt(np.sum(diffs * diffs, axis=1))))


def embedding_distortion(z_pert: EmbeddingTable, t: int, n_orig, n_pert
                         ) -> DistortionScore:
    d_o = mean_l2_to_set(z_pert, t, n_orig)
    d_p = mean_l2_to_set(z_pert, t, n_pert)
    return DistortionScore(d_orig=d_o, d_pert=d_p, value=d_o - d_p)


def graph_pair_distortion(embed_model, g_orig: Graph, g_pert: Graph, t: int,
                          k: int) -> DistortionScore:
    """Distortion of t between two graphs, re-embedding the perturbed one
    with the frozen model. This is the attacker's reward primitive."""
    n_orig = k_hop_neighborhood(g_orig, t, k)
    n_pert = k_hop_neighborhood(g_pert, t, k)
    z_pert = embedding_forward(embed_model, g_pert)
    return embedding_distortion(z_pert, t, n_orig, n_pert)


def single_flip_distortions(embed_model, g: Graph, t: int, k: int, n_orig,
                            accessible=None):
    """Yield (edit, g_pert, z_pert, value) for each single flip of t in g,
    in ``candidate_edits`` order: g_pert is g with the edit applied, z_pert
    its embedding by `embed_model` (frozen parameters, or a callable
    graph -> table), and value t's distortion from `n_orig` to its k-hop
    neighborhood in g_pert. Raises NoCandidatesError when t has none."""
    frozen = hasattr(embed_model, "param_dict") or not callable(embed_model)
    for v in candidate_edits(g, t, accessible):
        edit = flip_edit(g, t, v)
        g_pert = apply_edit(g, edit)
        z_pert = (embedding_forward(embed_model, g_pert) if frozen
                  else embed_model(g_pert))
        n_pert = k_hop_neighborhood(g_pert, t, k)
        yield edit, g_pert, z_pert, embedding_distortion(
            z_pert, t, n_orig, n_pert).value


# -- batched single flips -----------------------------------------------------


@dataclass(frozen=True)
class _Layer:
    x: np.ndarray  # X_i = H_{i-1} W_i; W_0 itself, as H_{-1} is one-hot
    w: np.ndarray | None  # W_i, maps a change of H_{i-1} to one of X_i
    p: np.ndarray  # P_i's values on the A + I structure
    lin: np.ndarray  # P_i X_i + b_i
    h: np.ndarray  # H_i = row_map(lin)
    row_map: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FlipBase:
    """One forward of `graph`, kept per layer to patch its single flips.

    ``indptr``/``indices`` hold the structure of A + I, which every P_i
    shares; ``delta_p(indptr, indices, t, others, signs)`` returns P' - P
    of each flip (t, others[c]) as flat COO arrays (candidate c, row,
    column, value).
    """

    graph: Graph
    table: EmbeddingTable
    indptr: np.ndarray
    indices: np.ndarray
    layers: tuple[_Layer, ...]
    delta_p: Callable


def flip_base(embed_model, g: Graph) -> FlipBase:
    """Run `embed_model` (GIN or GCN parameters) on g once, keeping what
    ``flip_distortions`` and ``flip_tables`` patch."""
    indptr, indices = _self_loop_structure(g)
    if isinstance(embed_model, GinParams):
        values, cache = _gin_forward_cached(embed_model, g)
        diag = indices == np.repeat(np.arange(g.node_count), np.diff(indptr))
        outs = [c["h_prev"] for c in cache[1:]] + [values]
        layers = tuple(
            _Layer(x=lay.w1 if i == 0 else c["h_prev"] @ lay.w1,
                   w=None if i == 0 else lay.w1,
                   p=np.where(diag, 1.0 + float(lay.eps), 1.0),
                   lin=c["lin"], h=h,
                   row_map=lambda lin, lay=lay: relu(lin) @ lay.w2 + lay.b2)
            for i, (lay, c, h) in enumerate(zip(embed_model.layers, cache,
                                                outs)))
        return FlipBase(g, EmbeddingTable(values, "gin"), indptr, indices,
                        layers, _gin_delta_p)
    if isinstance(embed_model, GcnEmbedParams):
        values, cache = _gcn_embed_forward_cached(embed_model, g)
        s = g.normalized_adjacency()  # on the A + I structure
        last = len(cache) - 1
        outs = [h for h, _ in cache[1:]] + [values]
        layers = tuple(
            _Layer(x=w if h_prev is None else h_prev @ w,
                   w=None if i == 0 else w, p=s.data, lin=lin, h=h,
                   row_map=(lambda lin: lin) if i == last else relu)
            for i, (w, (h_prev, lin), h) in enumerate(
                zip(embed_model.weights, cache, outs)))
        return FlipBase(g, EmbeddingTable(values, "gcn"), indptr, indices,
                        layers, _gcn_delta_p)
    raise DataError(f"unknown embedding model type {type(embed_model).__name__}")


def _gin_delta_p(indptr, indices, t: int, others: np.ndarray,
                 signs: np.ndarray):
    """GIN's P' - P: the sign of each flip at (t, v) and (v, t)."""
    cand = np.arange(others.size)
    at_t = np.full(others.size, t)
    return (np.concatenate([cand, cand]), np.concatenate([at_t, others]),
            np.concatenate([others, at_t]), np.concatenate([signs, signs]))


def _gcn_delta_p(indptr, indices, t: int, others: np.ndarray,
                 signs: np.ndarray):
    """S' - S of each flip (t, v): rows and columns t and v of
    S = D^-1/2 (A + I) D^-1/2, whose entries are d[i] * d[j] with
    d = 1 / sqrt(degree + 1), the size of a closed neighborhood."""
    m = others.size
    closed = np.diff(indptr)
    d = 1.0 / np.sqrt(closed.astype(np.float64))
    d_t = 1.0 / np.sqrt(closed[t] + signs)
    d_v = 1.0 / np.sqrt(closed[others] + signs)
    # rows t and v: their closed neighborhoods in g, then the added edge
    row_t = indices[indptr[t]:indptr[t + 1]]
    of_v, flat = _row_entries(indptr, others)
    adds = np.flatnonzero(signs > 0)
    n_t, n_v = m * row_t.size, flat.size
    cand = np.concatenate([np.repeat(np.arange(m), row_t.size), of_v, adds,
                           adds])
    v = others[cand]
    in_row_t = np.repeat([True, False, True, False],
                         [n_t, n_v, adds.size, adds.size])
    x = np.where(in_row_t, t, v)
    j = np.concatenate([np.tile(row_t, m), indices[flat], others[adds],
                        np.full(adds.size, t)])
    old = np.arange(cand.size) < n_t + n_v  # entries of S
    # every row's entries stay but for a deleted edge's (t, v) and (v, t)
    new = ~(old & (signs[cand] < 0) & (x != j) & ((j == t) | (j == v)))

    def scale(node):  # d after the flip
        return np.where(node == t, d_t[cand], np.where(node == v, d_v[cand],
                                                        d[node]))

    value = new * scale(x) * scale(j) - old * d[x] * d[j]
    mirror = old & (j != t) & (j != v)  # (j, x) for j outside the flip
    return (np.concatenate([cand, cand[mirror]]), np.concatenate([x, j[mirror]]),
            np.concatenate([j, x[mirror]]),
            np.concatenate([value, value[mirror]]))


def _find(keys, want) -> tuple[np.ndarray, np.ndarray]:
    """For each of `want`, its slot in the sorted `keys` and whether the
    key there is it."""
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return at, keys[at] == want


def _flip_signs(g: Graph, t: int, accessible=None
                ) -> tuple[np.ndarray, np.ndarray]:
    """``candidate_edits`` of t, and +1 for each flip that adds an edge,
    -1 for each that deletes one."""
    others = candidate_edits(g, t, accessible)
    linked = np.zeros(g.node_count, dtype=bool)
    linked[g.neighbors(t)] = True
    return others, np.where(linked[others], -1.0, 1.0)


def _patch_rows(base: FlipBase, t: int, others: np.ndarray,
                signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each flip's table that differ from the base table:
    sorted keys c * n + node for flip c, and the patched rows."""
    n = base.graph.node_count
    indptr, indices = base.indptr, base.indices
    cand_p, row_p, col_p, val_p = base.delta_p(indptr, indices, t, others,
                                               signs)
    keys_p = cand_p * n + col_p
    keys = np.empty(0, dtype=np.int64)
    dh = out = None
    for lay in base.layers:
        x_cols = lay.x[col_p]
        parts_k, parts_v = [], []
        if keys.size:
            dx = dh @ lay.w
            # P dX: P is symmetric, so row c of P spreads dX[c] over its rows
            cand, c = np.divmod(keys, n)
            src, flat = _row_entries(indptr, c)
            parts_k.append(cand[src] * n + indices[flat])
            parts_v.append(lay.p[flat, None] * dx[src])
            # dP X' reads X' = X + dX on the changed rows
            at, hit = _find(keys, keys_p)
            x_cols[hit] += dx[at[hit]]
        parts_k.append(cand_p * n + row_p)
        parts_v.append(val_p[:, None] * x_cols)
        flat_k = np.concatenate(parts_k)
        order = np.argsort(flat_k, kind="stable")
        flat_k = flat_k[order]
        first = np.flatnonzero(np.r_[True, flat_k[1:] != flat_k[:-1]])
        keys = flat_k[first]
        rows = keys % n
        dlin = np.add.reduceat(np.concatenate(parts_v)[order], first, axis=0)
        out = lay.row_map(lay.lin[rows] + dlin)
        dh = out - lay.h[rows]
    return keys, out


def flip_distortions(base: FlipBase, t: int, k: int, n_orig, accessible=None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(others, values): t's distortion from `n_orig` for each single flip
    (t, others[c]) of ``base.graph``, in ``candidate_edits`` order over
    `accessible`, the values of ``single_flip_distortions`` up to rounding.
    Raises NoCandidatesError when t has none."""
    g, z = base.graph, base.table.values
    n = g.node_count
    others, signs = _flip_signs(g, t, accessible)
    n_orig = np.asarray(n_orig, dtype=np.int64)
    n_orig = n_orig[n_orig != t]
    hood = k_hop_neighborhood(g, t, k)
    values = np.empty(others.size)
    for lo in range(0, others.size, _FLIP_CHUNK):
        vs, ss = others[lo:lo + _FLIP_CHUNK], signs[lo:lo + _FLIP_CHUNK]
        m = vs.size
        keys, rows = _patch_rows(base, t, vs, ss)
        # segment 2c reads n_orig in flip c's table, 2c + 1 its own hood
        flipped = flip_neighborhoods(g, t, k, vs, hood)
        flipped = flipped[flipped % n != t]
        seg = np.concatenate([np.repeat(np.arange(0, 2 * m, 2), n_orig.size),
                              flipped // n * 2 + 1])
        sizes = np.bincount(seg, minlength=2 * m)
        cand = seg // 2
        nodes = np.concatenate([np.tile(n_orig, m), flipped % n])
        pts = z[nodes]
        at, hit = _find(keys, cand * n + nodes)
        pts[hit] = rows[at[hit]]
        pts -= rows[np.searchsorted(keys, np.arange(m) * n + t)][cand]
        dist = np.sqrt(np.einsum("ij,ij->i", pts, pts))
        means = np.bincount(seg, dist, minlength=2 * m) / np.maximum(sizes, 1)
        values[lo:lo + m] = means[0::2] - means[1::2]
    return others, values


def flip_tables(base: FlipBase, t: int):
    """Yield (edit, z_pert) for each single flip of t in ``base.graph``,
    in ``candidate_edits`` order: z_pert is the flipped graph's table,
    the base table with the rows the flip changes patched."""
    g, z = base.graph, base.table.values
    n = g.node_count
    others, signs = _flip_signs(g, t)
    for lo in range(0, others.size, _FLIP_CHUNK):
        vs, ss = others[lo:lo + _FLIP_CHUNK], signs[lo:lo + _FLIP_CHUNK]
        keys, rows = _patch_rows(base, t, vs, ss)
        bounds = np.searchsorted(keys, np.arange(vs.size + 1) * n)
        for c, (v, sign) in enumerate(zip(vs.tolist(), ss.tolist())):
            values = z.copy()
            part = slice(bounds[c], bounds[c + 1])
            values[keys[part] - c * n] = rows[part]
            yield (EdgeEdit(t, v, ADD if sign > 0 else DELETE),
                   EmbeddingTable(values, base.table.backend))
