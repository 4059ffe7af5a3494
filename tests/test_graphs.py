import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack.errors import DataError, NoCandidatesError
from nbrattack.graphs import (ADD, DELETE, EdgeEdit, Graph, apply_edit,
                              apply_edits, candidate_edits,
                              connected_components, graph_distance,
                              k_hop_neighborhood, largest_connected_component,
                              neighborhood_distortion)
from tests.conftest import make_graph


def khop_oracle(g, v, k):
    """Reference: reachability via boolean adjacency powers."""
    n = g.node_count
    a = np.zeros((n, n), dtype=bool)
    for u, w in g.edges():
        a[u, w] = a[w, u] = True
    reach = np.zeros(n, dtype=bool)
    reach[v] = True
    frontier = reach.copy()
    for _ in range(k):
        frontier = (a @ frontier) & ~reach | frontier  # noqa: E226 - bool algebra
        reach |= a @ reach
        reach[v] = True
    return frozenset(np.flatnonzero(reach).tolist())


def normalized_adjacency_oracle(g):
    """Reference: D^-1/2 (A + I) D^-1/2 as two sparse-sparse products."""
    a = g.adjacency() + sp.identity(g.node_count, format="csr")
    deg = np.asarray(a.sum(axis=1)).ravel()
    d = sp.diags(1.0 / np.sqrt(deg))
    return (d @ a @ d).tocsr()


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestGraphConstruction:
    def test_dedup_and_reversed_pairs(self):
        g = make_graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(DataError):
            make_graph(3, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(DataError):
            make_graph(3, [(0, 3)])

    def test_feature_row_mismatch(self):
        with pytest.raises(DataError):
            Graph(3, [], np.zeros((2, 4)))

    def test_nonfinite_features(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = np.nan
        with pytest.raises(DataError):
            Graph(2, [], feats)

    def test_label_shape(self):
        with pytest.raises(DataError):
            Graph(2, [], np.zeros((2, 1)), labels=[0, 1, 0])

    def test_features_readonly(self, path4):
        with pytest.raises(ValueError):
            path4.features[0, 0] = 3.0

    def test_adjacency_matches_edges(self, triangle_plus):
        a = triangle_plus.adjacency().toarray()
        assert np.array_equal(a, a.T)
        assert a.sum() == 2 * triangle_plus.edge_count
        for u, v in triangle_plus.edges():
            assert a[u, v] == 1.0


class TestKHop:
    def test_path_graph(self, path4):
        assert k_hop_neighborhood(path4, 0, 1) == {0, 1}
        assert k_hop_neighborhood(path4, 0, 2) == {0, 1, 2}
        assert k_hop_neighborhood(path4, 0, 3) == {0, 1, 2, 3}

    def test_k_zero_is_self(self, triangle_plus):
        assert k_hop_neighborhood(triangle_plus, 2, 0) == {2}

    def test_isolated_node(self, triangle_plus):
        assert k_hop_neighborhood(triangle_plus, 4, 5) == {4}

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(3, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            g = make_graph(n, edges, seed=trial)
            v = int(rng.integers(n))
            for k in range(4):
                assert k_hop_neighborhood(g, v, k) == khop_oracle(g, v, k)

    def test_bad_args(self, path4):
        with pytest.raises(DataError):
            k_hop_neighborhood(path4, 9, 1)
        with pytest.raises(DataError):
            k_hop_neighborhood(path4, 0, -1)


class TestEdits:
    def test_edit_normalizes_endpoints(self):
        e = EdgeEdit(3, 1, ADD)
        assert (e.u, e.v) == (1, 3)

    def test_edit_rejects_self_loop_and_bad_sign(self):
        with pytest.raises(DataError):
            EdgeEdit(1, 1, ADD)
        with pytest.raises(DataError):
            EdgeEdit(0, 1, "toggle")

    def test_add_and_delete(self, path4):
        g2 = apply_edit(path4, EdgeEdit(0, 3, ADD))
        assert g2.has_edge(0, 3) and not path4.has_edge(0, 3)
        g3 = apply_edit(g2, EdgeEdit(0, 3, DELETE))
        assert not g3.has_edge(0, 3)
        assert g3.edge_count == path4.edge_count

    def test_invalid_direction(self, path4):
        with pytest.raises(DataError):
            apply_edit(path4, EdgeEdit(0, 1, ADD))  # already present
        with pytest.raises(DataError):
            apply_edit(path4, EdgeEdit(0, 2, DELETE))  # absent

    def test_original_untouched(self, path4):
        before = set(path4.edges())
        apply_edit(path4, EdgeEdit(0, 2, ADD))
        assert set(path4.edges()) == before

    def test_shares_features(self, path4):
        g2 = apply_edit(path4, EdgeEdit(0, 2, ADD))
        assert g2.features is path4.features


class TestGraphDistance:
    def test_single_edit_distance_one(self, path4):
        g2 = apply_edit(path4, EdgeEdit(0, 2, ADD))
        assert graph_distance(path4, g2) == 1

    def test_node_count_mismatch(self, path4):
        other = make_graph(5, [])
        with pytest.raises(DataError):
            graph_distance(path4, other)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_metric_properties(self, data):
        n = data.draw(st.integers(3, 8))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        picks = st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        ga = make_graph(n, data.draw(picks))
        gb = make_graph(n, data.draw(picks))
        gc = make_graph(n, data.draw(picks))
        dab = graph_distance(ga, gb)
        assert dab == graph_distance(gb, ga)
        assert dab >= 0
        assert (dab == 0) == (set(ga.edges()) == set(gb.edges()))
        assert dab <= graph_distance(ga, gc) + graph_distance(gc, gb)

    def test_counts_symmetric_difference(self):
        ga = make_graph(4, [(0, 1), (1, 2)])
        gb = make_graph(4, [(1, 2), (2, 3), (0, 3)])
        assert graph_distance(ga, gb) == 3


class TestNeighborhoodDistortion:
    def test_zero_on_identical(self, path4):
        assert neighborhood_distortion(path4, path4, 1, 2) == 0.0

    def test_unit_on_disjoint_union_change(self):
        # t=0 isolated; adding an edge to 1 makes N1 = {0,1} vs {0}
        g = make_graph(3, [])
        g2 = apply_edit(g, EdgeEdit(0, 1, ADD))
        assert neighborhood_distortion(g, g2, 0, 1) == pytest.approx(0.5)

    def test_hand_value_on_path(self, path4):
        # N2(0) = {0,1,2}; delete (1,2): N2' = {0,1} -> 1 - 2/3
        g2 = apply_edit(path4, EdgeEdit(1, 2, DELETE))
        got = neighborhood_distortion(path4, g2, 0, 2)
        assert got == pytest.approx(1 - 2 / 3)

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = 8
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.25]
            ga = make_graph(n, edges, seed=trial)
            e = candidate_edits(ga, 0)[int(rng.integers(n - 1))]
            gb = apply_edit(ga, e)
            v = int(rng.integers(n))
            d1 = neighborhood_distortion(ga, gb, v, 2)
            d2 = neighborhood_distortion(gb, ga, v, 2)
            assert 0.0 <= d1 <= 1.0
            assert d1 == pytest.approx(d2)


class TestComponents:
    def test_components_partition(self):
        g = make_graph(6, [(0, 1), (1, 2), (3, 4)])
        comps = connected_components(g)
        assert sorted(sum(comps, [])) == list(range(6))
        assert [0, 1, 2] in comps and [3, 4] in comps and [5] in comps

    def test_lcc_remaps_ids_and_rows(self):
        feats = np.arange(12, dtype=float).reshape(6, 2)
        g = Graph(6, [(2, 3), (3, 5), (0, 1)], feats, labels=[0, 1, 2, 3, 4, 5])
        sub, mapping = largest_connected_component(g)
        assert sub.node_count == 3
        assert set(mapping) == {2, 3, 5}
        assert sub.has_edge(mapping[2], mapping[3])
        assert sub.has_edge(mapping[3], mapping[5])
        for old, new in mapping.items():
            assert np.array_equal(sub.features[new], feats[old])
            assert sub.labels[new] == old

    def test_lcc_tie_break_is_smallest_first_node(self):
        g = make_graph(6, [(0, 1), (4, 5)])
        sub, mapping = largest_connected_component(g)
        assert set(mapping) == {0, 1}


class TestCandidateEdits:
    def test_all_flips_except_self(self, path4):
        cands = candidate_edits(path4, 0)
        assert len(cands) == 3
        signs = {(e.u, e.v): e.sign for e in cands}
        assert signs[(0, 1)] == DELETE
        assert signs[(0, 2)] == ADD
        assert signs[(0, 3)] == ADD

    def test_sorted_by_other_endpoint(self, path4):
        others = [e.v if e.u == 2 else e.u for e in candidate_edits(path4, 2)]
        assert others == sorted(others)

    def test_accessible_restriction(self, path4):
        cands = candidate_edits(path4, 0, accessible=[2, 3])
        assert {(e.u, e.v) for e in cands} == {(0, 2), (0, 3)}

    def test_empty_pool_raises(self, path4):
        with pytest.raises(NoCandidatesError):
            candidate_edits(path4, 0, accessible=[0])

    def test_apply_edits_sequence(self, path4):
        edits = candidate_edits(path4, 0, accessible=[2, 3])
        g2 = apply_edits(path4, edits)
        assert graph_distance(path4, g2) == 2


class TestSparseViews:
    """A derived graph splices its flips into its ancestor's CSR."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_splice_matches_scratch_build(self, data):
        n = data.draw(st.integers(2, 12))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, data.draw(st.lists(st.sampled_from(all_pairs),
                                             unique=True)))
        if data.draw(st.booleans()):
            g.adjacency()
        steps = data.draw(st.lists(
            st.tuples(st.sampled_from(all_pairs), st.booleans(), st.booleans()),
            max_size=15))
        for pair, twice, build in steps:
            for _ in range(1 + twice):  # a second flip of a pair undoes the first
                sign = DELETE if g.has_edge(*pair) else ADD
                g = apply_edit(g, EdgeEdit(*pair, sign))
            if build:
                g.adjacency()
        scratch = Graph(n, list(g.edges()), g.features)
        got = g.adjacency()
        assert_same_csr(got, scratch.adjacency())
        for r in range(n):
            assert np.all(np.diff(got.indices[got.indptr[r]:got.indptr[r + 1]]) > 0)
        assert_same_csr(g.normalized_adjacency(),
                        normalized_adjacency_oracle(scratch))

    def test_normalized_adjacency_matches_oracle_on_sbm(self, small_sbm):
        assert_same_csr(small_sbm.normalized_adjacency(),
                        normalized_adjacency_oracle(small_sbm))

    def test_built_child_releases_its_ancestor(self):
        root = make_graph(5, [(0, 1), (1, 2)])
        child = apply_edit(root, EdgeEdit(0, 4, ADD))
        ref = weakref.ref(root)
        child.adjacency()
        del root
        gc.collect()
        assert ref() is None

    def test_unbuilt_chain_holds_no_intermediates(self):
        n = 60
        g = make_graph(n, [])
        refs = []
        for v in range(1, 51):
            g = apply_edit(g, EdgeEdit(0, v, ADD))
            refs.append(weakref.ref(g))
        gc.collect()
        assert all(r() is None for r in refs[:-1])
        assert_same_csr(g.adjacency(),
                        Graph(n, list(g.edges()), g.features).adjacency())
