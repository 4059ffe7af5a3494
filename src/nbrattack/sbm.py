"""Stochastic block model graphs for desk-scale experiments.

Features are one-hot block indicators with optional flip noise: with
probability `feature_noise` a node's indicator is replaced by that of a
uniformly random block, so the task stays learnable from structure but
is no longer trivially solvable from features alone. Labels are the
block ids.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError
from .graphs import Graph
from .numerics import rng_from_seed


def generate_sbm(block_sizes, p_in: float, p_out: float, seed: int,
                 feature_noise: float = 0.1) -> Graph:
    sizes = [int(s) for s in block_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise DataError(f"need >= 2 non-empty blocks, got {sizes}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not (0.0 <= p <= 1.0):
            raise DataError(f"{name}={p} outside [0, 1]")
    if not (0.0 <= feature_noise <= 1.0):
        raise DataError(f"feature_noise={feature_noise} outside [0, 1]")
    rng = rng_from_seed(seed)
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < probs
    edges = np.column_stack([iu[keep], ju[keep]])
    features = np.zeros((n, len(sizes)))
    features[np.arange(n), labels] = 1.0
    flips = rng.random(n) < feature_noise
    for v in np.flatnonzero(flips):
        features[v] = 0.0
        features[v, rng.integers(len(sizes))] = 1.0
    return Graph(n, edges, features, labels)
