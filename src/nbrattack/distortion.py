"""Embedding-space distortion of a node's neighborhood.

Both distances are measured in the perturbed graph's embedding space:
the score compares how far the target sits from its ORIGINAL k-hop
neighborhood versus its PERTURBED one, using one table Z computed on
the perturbed graph. A positive value means the edits pushed the target
away from where it used to live.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embed import EmbeddingTable, embedding_forward
from .errors import DataError
from .graphs import Graph, k_hop_neighborhood


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
