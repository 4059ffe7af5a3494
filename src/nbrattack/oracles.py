"""Reference attackers: exhaustive maximizer, per-step greedy, random and
degree baselines, plus the set-cover hardness gadget.

The gadget encodes a set-cover instance (U of n elements, m subsets,
budget b) as a bipartite graph: one node per subset, one per element,
an edge (x_i, y_j) whenever element j lies in subset i, and an isolated
target t. Connecting t to subset nodes puts those subsets' elements into
t's 2-hop neighborhood, so t's 2-hop set reaches b + n nodes (beyond t)
exactly when the chosen subsets cover U.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from . import io as fileio
from .distortion import (flip_base, flip_distortions,
                         single_flip_distortions)
from .embed import GcnEmbedParams, GinParams
from .errors import DataError, SizeCapError
from .graphs import (EdgeEdit, Graph, _jaccard_distance, apply_edit,
                     apply_edits, candidate_edits, flip_edit,
                     flip_neighborhoods, k_hop_neighborhood)
from .numerics import rng_from_seed

BRUTE_FORCE_CAP = 10 ** 5

# Greedy re-scores exactly every flip whose batched distortion lies within
# this of the batched maximum. The batched values stay within 1e-12 of the
# exact ones (tests/test_distortion.py checks that bound), so the first
# exact maximum is always among them: its batched value is at least the
# batched maximum less 2e-12. The margin leaves room for larger embeddings.
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SetCoverInstance:
    n_elements: int
    subsets: tuple[frozenset, ...]
    budget: int

    def __post_init__(self):
        if self.n_elements <= 0:
            raise DataError("set-cover instance needs at least one element")
        if not self.subsets:
            raise DataError("set-cover instance needs at least one subset")
        if not (0 <= self.budget <= len(self.subsets)):
            raise DataError(
                f"budget {self.budget} outside [0, {len(self.subsets)}]")
        covered = frozenset().union(*self.subsets)
        missing = set(range(self.n_elements)) - covered
        if missing:
            raise DataError(f"elements {sorted(missing)} appear in no subset")
        for s in self.subsets:
            for x in s:
                if not (0 <= x < self.n_elements):
                    raise DataError(f"element {x} outside universe")

    @classmethod
    def from_file(cls, path: str) -> "SetCoverInstance":
        n, sets, b = fileio.load_set_cover(path)
        return cls(n_elements=n, subsets=tuple(sets), budget=b)


def has_cover(inst: SetCoverInstance) -> bool:
    """Exhaustively decide whether <= budget subsets cover the universe."""
    universe = frozenset(range(inst.n_elements))
    m = len(inst.subsets)
    for size in range(inst.budget + 1):
        for combo in itertools.combinations(range(m), size):
            if frozenset().union(*(inst.subsets[i] for i in combo), frozenset()) == universe:
                return True
    return False


def reduction_graph(inst: SetCoverInstance) -> tuple[Graph, int, list[int], int]:
    """Encode the instance as a graph attack problem.

    Nodes: subset nodes 0..m-1, element nodes m..m+n-1, target t = m+n
    (isolated). Returns (graph, t, accessible subset nodes, budget).
    """
    m, n = len(inst.subsets), inst.n_elements
    node_count = m + n + 1
    edges = [(i, m + j) for i, s in enumerate(inst.subsets) for j in sorted(s)]
    features = np.ones((node_count, 1))
    g = Graph(node_count, edges, features)
    return g, m + n, list(range(m)), inst.budget


def two_hop_reach(g: Graph, t: int) -> int:
    """|N^2(t)| excluding t itself — the quantity the gadget maximizes."""
    return len(k_hop_neighborhood(g, t, 2)) - 1


def brute_force_max_distortion(g: Graph, t: int, budget: int, k: int = 2,
                               accessible=None, cap: int = BRUTE_FORCE_CAP
                               ) -> tuple[tuple[EdgeEdit, ...], float]:
    """Exhaustive search over all edit subsets of size <= budget.

    Maximizes graph-space distortion (Jaccard distance of k-hop
    neighborhoods). First strict maximum in (size, candidate-index
    lexicographic) order wins, i.e. ties go to the smallest edit list.
    """
    if budget < 0:
        raise DataError(f"negative budget {budget}")
    others = candidate_edits(g, t, accessible)
    m = len(others)
    total = sum(comb(m, size) for size in range(min(budget, m) + 1))
    if total > cap:
        raise SizeCapError(
            f"{total} edit subsets exceed the cap of {cap}; shrink the instance")
    cands = [flip_edit(g, t, v) for v in others]
    best_edits: tuple[EdgeEdit, ...] = ()
    best_value = 0.0
    n_start = k_hop_neighborhood(g, t, k)
    for size in range(min(budget, m) + 1):
        for combo in itertools.combinations(cands, size):
            value = _jaccard_distance(
                n_start, k_hop_neighborhood(apply_edits(g, combo), t, k))
            if value > best_value:
                best_value = value
                best_edits = combo
    return best_edits, best_value


def greedy_attack(g: Graph, t: int, budget: int, k: int = 2,
                  embed_model=None, objective: str = "embedding",
                  accessible=None) -> list[EdgeEdit]:
    """Commit the best single edit per step, scoring every candidate; ties
    go to the first candidate in ``candidate_edits`` order.

    objective="embedding": maximizes cumulative embedding distortion
    against the starting graph. With frozen GIN or GCN parameters, each
    step runs one patched forward (``flip_base`` and ``flip_distortions``)
    over all candidates, then re-embeds only those within ``_TIE_TOL`` of
    the batched maximum with ``single_flip_distortions``, so the choice is
    the exact first maximum, as if every candidate had been re-embedded.
    A callable graph -> table (full retraining) re-embeds every candidate.
    objective="graph": maximizes the k-hop Jaccard distance instead and
    needs no embeddings.
    """
    if budget < 1:
        raise DataError(f"greedy budget must be >= 1, got {budget}")
    if objective not in ("embedding", "graph"):
        raise DataError(f"unknown objective {objective!r}")
    if objective == "embedding" and embed_model is None:
        raise DataError("embedding objective requires an embedding model")
    frozen = isinstance(embed_model, (GinParams, GcnEmbedParams))
    n_start = k_hop_neighborhood(g, t, k)
    chosen: list[EdgeEdit] = []
    cur = g
    for _ in range(budget):
        if objective == "graph":
            others, values = _jaccard_flips(cur, t, k, n_start, accessible)
            edit = flip_edit(cur, t, others[np.argmax(values)])  # first max
            cur = apply_edit(cur, edit)
        else:
            pool = accessible
            if frozen:
                others, values = flip_distortions(flip_base(embed_model, cur),
                                                  t, k, n_start, accessible)
                pool = others[values >= values.max() - _TIE_TOL]
            scored = single_flip_distortions(embed_model, cur, t, k, n_start,
                                             pool)
            edit, cur = max(scored, key=lambda row: row[-1])[:2]  # first max
        chosen.append(edit)
    return chosen


def _jaccard_flips(g: Graph, t: int, k: int, n_start, accessible
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(others, k-hop Jaccard distance from n_start) per single flip
    (t, others[c]), in ``candidate_edits`` order."""
    others = candidate_edits(g, t, accessible)  # raises if none
    cand, nodes = np.divmod(flip_neighborhoods(g, t, k, others), g.node_count)
    in_start = np.zeros(g.node_count, dtype=bool)
    in_start[n_start] = True
    common = np.bincount(cand, in_start[nodes], minlength=others.size)
    union = n_start.size + np.bincount(cand, minlength=others.size) - common
    return others, 1.0 - common / union


def random_attack(g: Graph, t: int, budget: int, seed,
                  accessible=None) -> list[EdgeEdit]:
    """Uniform sample of distinct candidate edits, applied in draw order."""
    if budget < 1:
        raise DataError(f"random budget must be >= 1, got {budget}")
    rng = seed if isinstance(seed, np.random.Generator) else rng_from_seed(seed)
    cands = candidate_edits(g, t, accessible)
    if budget > len(cands):
        warnings.warn(
            f"budget {budget} exceeds {len(cands)} candidates; truncating")
        budget = len(cands)
    idx = rng.choice(len(cands), size=budget, replace=False)
    return [flip_edit(g, t, v) for v in cands[idx]]


def degree_attack(g: Graph, t: int, budget: int, accessible=None
                  ) -> list[EdgeEdit]:
    """Edits toward the highest-degree candidate endpoints, descending."""
    if budget < 1:
        raise DataError(f"degree budget must be >= 1, got {budget}")
    cands = candidate_edits(g, t, accessible)
    if budget > len(cands):
        warnings.warn(
            f"budget {budget} exceeds {len(cands)} candidates; truncating")
        budget = len(cands)
    ranked = sorted(cands.tolist(), key=lambda v: (-g.degree(v), v))
    return [flip_edit(g, t, v) for v in ranked[:budget]]
