import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack.analysis import (COMMUNITY_METRICS, NODE_PROPERTIES,
                                TargetCandidates,
                                _average_ranks, community_metric,
                                correlation_study, embedding_community,
                                feature_similarity, local_clustering,
                                reverse_knn_ranks, spearman)
from nbrattack.embed import EmbeddingTable
from nbrattack.errors import DataError
from nbrattack.graphs import Graph, apply_edit, flip_edit, k_hop_neighborhood
from nbrattack.numerics import rng_from_seed
from tests.conftest import make_graph


def nearest_by_lexsort(z, u, k):
    """The k nearest rows to row u by one full sort of (distance, index):
    the oracle for the partition-based selection in analysis."""
    d = np.linalg.norm(z - z[u], axis=1)
    d[u] = np.inf
    return np.lexsort((np.arange(len(z)), d))[:k]


# Per-node references for the property vectors of analysis, which compute
# every node at once with array operations.


def feature_similarity_at(g, t, v):
    """Jaccard similarity of the nonzero feature supports of t and v."""
    a = set(np.flatnonzero(g.features[t]).tolist())
    b = set(np.flatnonzero(g.features[v]).tolist())
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def local_clustering_at(g, v):
    """Fraction of possible links among v's neighbors that exist."""
    nbrs = g.neighbors(v).tolist()
    d = len(nbrs)
    if d < 2:
        return 0.0
    links = sum(1 for a, b in itertools.combinations(nbrs, 2)
                if g.has_edge(a, b))
    return 2.0 * links / (d * (d - 1))


def two_hop_containment(g):
    """count[v] = how many other nodes hold v in their 2-hop neighborhood,
    by one BFS per node."""
    counts = np.zeros(g.node_count)
    for u in range(g.node_count):
        counts[k_hop_neighborhood(g, u, 2)] += 1
    return counts - 1  # no node counts itself


def average_ranks_loop(vals):
    """Average ranks by walking each run of tied sorted values."""
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


def tie_heavy_tables():
    """Random tables, and small-integer ones where many distances tie."""
    rng = rng_from_seed(11)
    yield rng.normal(size=(40, 3))
    yield rng.integers(0, 3, size=(40, 2)).astype(float)
    yield np.zeros((7, 2))
    yield np.repeat(rng.normal(size=(5, 2)), 4, axis=0)


class TestNodeProperties:
    def test_feature_similarity_hand_values(self):
        feats = np.array([[1.0, 1.0, 0.0],
                          [0.0, 1.0, 1.0],
                          [0.0, 0.0, 0.0],
                          [1.0, 1.0, 0.0]])
        g = Graph(4, [(0, 1)], feats)
        sim = feature_similarity(g, 0)
        assert sim[1] == pytest.approx(1 / 3)
        assert sim[3] == 1.0
        assert sim[2] == 0.0
        assert feature_similarity(g, 2)[2] == 1.0  # empty vs empty

    def test_local_clustering_matches_triangle_count(self):
        rng = rng_from_seed(0)
        for trial in range(10):
            n = 9
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.35]
            g = make_graph(n, edges, seed=trial)
            got = local_clustering(g)
            for v in range(n):
                nbrs = sorted(g.neighbors(v))
                d = len(nbrs)
                tri = sum(1 for a, b in itertools.combinations(nbrs, 2)
                          if g.has_edge(a, b))
                want = 0.0 if d < 2 else tri / (d * (d - 1) / 2)
                assert got[v] == pytest.approx(want)

    def test_clustering_extremes(self, triangle_plus):
        clustering = local_clustering(triangle_plus)
        assert clustering[0] == 1.0  # in a triangle
        assert clustering[3] == 0.0  # degree 1
        assert clustering[4] == 0.0  # isolated

    def test_degree_property(self, triangle_plus):
        # candidate degrees are 2, 3, 1: distortions in that order rank
        # identically, reversed they rank oppositely
        for dists, want in (([2.0, 3.0, 1.0], 1.0), ([2.0, 1.0, 3.0], -1.0)):
            rows = correlation_study(
                triangle_plus, [TargetCandidates(target=0, nodes=[1, 2, 3],
                                                 distortions=dists)],
                properties=("degree",))
            assert rows[0]["mean_coefficient"] == want

    def test_unknown_property(self, triangle_plus):
        # rejected before any target is read, even when none is usable
        with pytest.raises(DataError, match="pagerank"):
            correlation_study(triangle_plus, [], properties=("pagerank",))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_vectors_match_per_node_oracles(self, data):
        # root and derived graphs with isolated nodes and all-zero feature
        # rows; the comparison is exact
        n = data.draw(st.integers(1, 12))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        isolated = data.draw(st.sets(st.integers(0, n - 1)))
        edges = []
        if all_pairs:
            edges = [p for p in data.draw(st.lists(st.sampled_from(all_pairs),
                                                   unique=True))
                     if not isolated.intersection(p)]
        support = data.draw(st.lists(st.lists(st.booleans(), min_size=4,
                                              max_size=4),
                                     min_size=n, max_size=n))
        feats = np.array(support) * np.array([1.0, -2.0, 0.5, 3.0])
        g = Graph(n, edges, feats)
        if all_pairs:
            for pair in data.draw(st.lists(st.sampled_from(all_pairs),
                                           max_size=3)):
                g = apply_edit(g, flip_edit(g, *pair))
        for t in range(n):
            assert feature_similarity(g, t).tolist() == [
                feature_similarity_at(g, t, v) for v in range(n)]
        assert local_clustering(g).tolist() == [
            local_clustering_at(g, v) for v in range(n)]
        assert np.array_equal(reverse_knn_ranks(g),
                              average_ranks_loop(-two_hop_containment(g)))


class TestReverseKnn:
    def test_graph_variant_counts_two_hop_containment(self, triangle_plus):
        ranks = reverse_knn_ranks(triangle_plus)
        counts = np.zeros(triangle_plus.node_count)
        for u in range(triangle_plus.node_count):
            for v in set(k_hop_neighborhood(triangle_plus, u, 2).tolist()) - {u}:
                counts[v] += 1
        # rank 1 = most-contained node; recompute ranks from raw counts
        want = average_ranks_loop(-counts)
        assert np.array_equal(ranks, want)

    def test_embedding_variant_hand_case(self):
        # 1-d embeddings: 0 at 0.0, 1 at 1.0, 2 at 1.1, 3 at 9.0
        # 1-NN of each: 0->1, 1->2, 2->1, 3->2; counts: [0, 2, 2, 0]
        z = EmbeddingTable(values=np.array([[0.0], [1.0], [1.1], [9.0]]))
        g = make_graph(4, [])
        ranks = reverse_knn_ranks(g, embeddings=z, k=1)
        assert ranks[1] == ranks[2] == 1.5
        assert ranks[0] == ranks[3] == 3.5

    def test_k_capped_at_n_minus_one(self):
        z = EmbeddingTable(values=rng_from_seed(1).normal(size=(5, 2)))
        g = make_graph(5, [])
        ranks = reverse_knn_ranks(g, embeddings=z, k=100)
        # k caps at 4, so every node is counted by all 4 others: all tied
        assert np.all(ranks == 3.0)

    def test_matches_lexsort_oracle(self):
        for z in tie_heavy_tables():
            n = len(z)
            g = make_graph(n, [])
            for k in (1, 2, 5, n - 2, n - 1, 100):
                counts = np.zeros(n)
                for u in range(n):
                    counts[nearest_by_lexsort(z, u, min(k, n - 1))] += 1
                got = reverse_knn_ranks(g, EmbeddingTable(values=z), k)
                assert np.array_equal(got, _average_ranks(-counts))

    def test_table_size_mismatch(self, triangle_plus):
        z = EmbeddingTable(values=np.zeros((3, 2)))
        with pytest.raises(DataError):
            reverse_knn_ranks(triangle_plus, embeddings=z)


class TestCommunityMetrics:
    @pytest.fixture
    def block_graph(self):
        # two triangles joined by a single bridge edge (2, 3)
        return make_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                              (2, 3)])

    def test_hand_counts(self, block_graph):
        s = {0, 1, 2}
        # cut = 1 (bridge), internal m = 3, vol = 2*3 + 1 = 7
        assert community_metric(block_graph, s, "volume") == 7.0
        assert community_metric(block_graph, s, "conductance") == pytest.approx(1 / 7)
        assert community_metric(block_graph, s, "edge_expansion") == pytest.approx(1 / 3)

    def test_normalized_cut_both_variants(self, block_graph):
        s = {0, 1, 2}
        c, m, e = 1, 3, block_graph.edge_count
        legacy = c * (1 / 7 + 1 / (2 * (e + m) - c))
        corrected = c * (1 / 7 + 1 / (2 * (e - m) - c))
        assert community_metric(block_graph, s, "normalized_cut") == \
            pytest.approx(legacy)
        assert community_metric(block_graph, s, "normalized_cut",
                                corrected_ncs=True) == pytest.approx(corrected)
        # the corrected variant splits volume between the two sides:
        # vol(S) + vol(complement) = 2|E|
        vol_s = community_metric(block_graph, s, "volume")
        vol_c = community_metric(block_graph, set(range(6)) - s, "volume")
        assert vol_s + vol_c == 2 * e
        assert corrected == pytest.approx(c / vol_s + c / vol_c)

    def test_zero_cut_short_circuits(self):
        g = make_graph(5, [(0, 1), (2, 3)])
        assert community_metric(g, {0, 1}, "normalized_cut") == 0.0
        assert community_metric(g, {0, 1}, "conductance") == 0.0

    def test_isolated_community_conductance(self):
        g = make_graph(4, [(2, 3)])
        assert community_metric(g, {0, 1}, "conductance") == 0.0  # vol 0

    def test_validation(self, block_graph):
        with pytest.raises(DataError):
            community_metric(block_graph, set(), "volume")
        with pytest.raises(DataError):
            community_metric(block_graph, set(range(6)), "volume")
        with pytest.raises(DataError):
            community_metric(block_graph, {0, 9}, "volume")
        with pytest.raises(DataError):
            community_metric(block_graph, {0}, "modularity")

    def test_embedding_community_nearest(self):
        z = EmbeddingTable(values=np.array([[0.0], [0.1], [5.0], [0.2]]))
        got = embedding_community(z, 0, size=2)
        assert got == [0, 1, 3]

    def test_embedding_community_size_cap(self):
        # at most n - 2 nodes join v: the community stays a proper subset
        z = EmbeddingTable(values=rng_from_seed(0).normal(size=(4, 2)))
        got = embedding_community(z, 1, size=50)
        assert len(got) == 3
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        for which in COMMUNITY_METRICS:
            assert np.isfinite(community_metric(g, got, which))

    def test_embedding_community_matches_lexsort_oracle(self):
        for z in tie_heavy_tables():
            n = len(z)
            for size in (0, 1, 3, n - 2, 50):
                for v in range(0, n, 3):
                    want = sorted({v, *nearest_by_lexsort(
                        z, v, min(size, n - 2)).tolist()})
                    got = embedding_community(EmbeddingTable(values=z), v,
                                              size)
                    assert got == want


class TestRanks:
    def test_matches_scipy_rankdata(self):
        rng = rng_from_seed(2)
        for _ in range(20):
            vals = rng.integers(0, 5, size=12).astype(float)
            assert np.allclose(_average_ranks(vals),
                               scipy.stats.rankdata(vals, method="average"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.inf,
                                     np.nan]), max_size=30))
    def test_matches_while_loop_oracle_on_ties(self, vals):
        assert np.array_equal(_average_ranks(vals), average_ranks_loop(vals))


class TestSpearman:
    def test_matches_scipy_on_random_lists(self):
        rng = rng_from_seed(3)
        for _ in range(25):
            n = int(rng.integers(5, 30))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n) + 0.5 * xs
            got = spearman(xs, ys)
            want = scipy.stats.spearmanr(xs, ys)
            assert got.coefficient == pytest.approx(want.statistic, abs=1e-12)
            assert got.p_value == pytest.approx(want.pvalue, abs=1e-10)

    def test_handles_ties_like_scipy(self):
        xs = [1, 2, 2, 3, 4, 4, 4]
        ys = [3, 3, 1, 5, 2, 2, 6]
        got = spearman(xs, ys)
        want = scipy.stats.spearmanr(xs, ys)
        assert got.coefficient == pytest.approx(want.statistic, abs=1e-12)

    def test_rank_difference_formula_distinct_ranks(self):
        # for distinct ranks: 1 - 6*sum(d^2) / (n(n^2-1))
        xs = [1, 2, 3, 4, 5]
        ys = [2, 1, 4, 3, 5]  # d^2 sums to 4
        assert spearman(xs, ys).coefficient == pytest.approx(
            1 - 6 * 4 / (5 * 24))
        ys2 = [2, 3, 1, 4, 5]  # d^2 sums to 6 -> 0.7
        assert spearman(xs, ys2).coefficient == pytest.approx(0.7)

    def test_perfect_correlation(self):
        res = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert res.coefficient == 1.0
        assert res.p_value == 0.0
        res2 = spearman([1, 2, 3, 4], [8, 6, 4, 2])
        assert res2.coefficient == -1.0

    def test_exact_permutation_small_n(self):
        res = spearman([1, 2, 3], [1, 2, 3], exact=True)
        assert res.method == "exact-permutation"
        # of 6 permutations only identity and reversal reach |r| = 1
        assert res.p_value == pytest.approx(2 / 6)

    def test_exact_limited_to_small_n(self):
        xs = list(range(11))
        with pytest.raises(DataError):
            spearman(xs, xs, exact=True)

    def test_input_validation(self):
        with pytest.raises(DataError):
            spearman([1, 2], [1, 2])
        with pytest.raises(DataError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(DataError):
            spearman([1, 1, 1], [1, 2, 3])  # constant list


class TestCorrelationStudy:
    def test_degree_correlates_perfectly_when_engineered(self, small_sbm):
        # hand the study distortions equal to each candidate's degree:
        # the degree property must then correlate with coefficient 1
        per_target = []
        for t in (0, 5):
            nodes = [v for v in range(small_sbm.node_count) if v != t][:8]
            per_target.append(TargetCandidates(
                target=t, nodes=nodes,
                distortions=[float(small_sbm.degree(v)) for v in nodes]))
        rows = correlation_study(small_sbm, per_target,
                                 properties=("degree",))
        row = rows[0]
        assert row["property"] == "degree"
        assert row["targets_used"] == 2
        assert row["mean_coefficient"] == pytest.approx(1.0)
        assert row["std_coefficient"] == pytest.approx(0.0)

    def test_small_targets_skipped(self, small_sbm):
        per_target = [TargetCandidates(target=0, nodes=[1, 2],
                                       distortions=[0.1, 0.2])]
        rows = correlation_study(small_sbm, per_target, properties=("degree",))
        assert rows[0]["targets_used"] == 0
        assert rows[0]["mean_coefficient"] is None

    def test_constant_property_skipped_not_fatal(self):
        g = make_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        # every candidate has degree 1: constant list -> no result row for
        # that target, but the call must not raise
        per_target = [TargetCandidates(target=0, nodes=[1, 2, 3],
                                       distortions=[0.1, 0.3, 0.2])]
        rows = correlation_study(g, per_target, properties=("degree",))
        assert rows[0]["targets_used"] == 0

    def test_extra_metrics_joined(self, small_sbm):
        per_target = [TargetCandidates(
            target=0, nodes=[1, 2, 3, 4],
            distortions=[0.4, 0.3, 0.2, 0.1],
            extra={"conductance_diff": [4.0, 3.0, 2.0, 1.0]})]
        rows = correlation_study(small_sbm, per_target, properties=())
        names = [r["property"] for r in rows]
        assert names == ["conductance_diff"]
        assert rows[0]["mean_coefficient"] == pytest.approx(1.0)

    def test_mismatched_lengths_raise(self, small_sbm):
        per_target = [TargetCandidates(target=0, nodes=[1, 2, 3],
                                       distortions=[0.1, 0.2])]
        with pytest.raises(DataError):
            correlation_study(small_sbm, per_target, properties=("degree",))

    @pytest.mark.parametrize("target,nodes", [
        (12, [1, 2, 3]), (-1, [1, 2, 3]), (0, [1, 2, 12]), (0, [1, -1, 3]),
        (-1, [1, 2]), (0, [1, 2.5, 3])])
    def test_node_ids_out_of_range(self, small_sbm, target, nodes):
        # a negative id must not wrap around, nor a fractional one truncate,
        # under array indexing
        per_target = [TargetCandidates(target=target, nodes=nodes,
                                       distortions=[0.1, 0.2, 0.3][:len(nodes)])]
        with pytest.raises(DataError, match="node ids"):
            correlation_study(small_sbm, per_target)

    def test_all_default_properties_run(self, small_sbm):
        rng = rng_from_seed(5)
        per_target = [TargetCandidates(
            target=0, nodes=list(range(1, 9)),
            distortions=rng.random(8).tolist())]
        rows = correlation_study(small_sbm, per_target)
        assert [r["property"] for r in rows] == list(NODE_PROPERTIES)
