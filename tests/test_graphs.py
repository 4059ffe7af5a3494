import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack.errors import DataError, NoCandidatesError
from nbrattack.graphs import (ADD, DELETE, EdgeEdit, Graph, apply_edit,
                              apply_edits, candidate_edits, flip_edit,
                              connected_components, flip_neighborhoods,
                              graph_distance, k_hop_neighborhood,
                              largest_connected_component,
                              neighborhood_distortion)
from tests.conftest import make_graph


def candidate_edits_oracle(g, target, accessible=None):
    """Reference: the signed EdgeEdit of every flip incident on `target`,
    built one object per other endpoint in ascending order."""
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

    def test_non_integer_endpoint_rejected(self):
        with pytest.raises(DataError, match="integers"):
            make_graph(3, [(0.5, 1)])

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1), (1, 2, 0)], [0, 1],
                                       np.zeros((2, 3), dtype=np.int64)])
    def test_non_pair_rows_rejected(self, edges):
        with pytest.raises(DataError, match="pairs"):
            make_graph(3, edges)

    @pytest.mark.parametrize("edges", [
        ((u, u + 1) for u in range(3)), [(0, 1), (1, 2), (2, 3)],
        np.array([[1, 0], [2, 1], [3, 2]])])
    def test_edge_inputs_build_one_csr(self, path4, edges):
        assert_same_csr(make_graph(4, edges).adjacency(), path4.adjacency())

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
        assert k_hop_neighborhood(path4, 0, 1).tolist() == [0, 1]
        assert k_hop_neighborhood(path4, 0, 2).tolist() == [0, 1, 2]
        assert k_hop_neighborhood(path4, 0, 3).tolist() == [0, 1, 2, 3]
        assert k_hop_neighborhood(path4, 2, 1).tolist() == [1, 2, 3]

    def test_k_zero_is_self(self, triangle_plus):
        assert k_hop_neighborhood(triangle_plus, 2, 0).tolist() == [2]

    def test_isolated_node(self, triangle_plus):
        assert k_hop_neighborhood(triangle_plus, 4, 5).tolist() == [4]

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(3, 12))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            g = make_graph(n, edges, seed=trial)
            v = int(rng.integers(n))
            for k in range(4):
                got = k_hop_neighborhood(g, v, k)
                assert got.dtype == np.int64
                assert got.tolist() == sorted(khop_oracle(g, v, k))

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

    def test_flip_back_is_zero(self, path4):
        # a pair flipped and flipped back nets no flip, spliced or not
        g1 = apply_edit(path4, EdgeEdit(0, 2, ADD))
        g2 = apply_edit(g1, EdgeEdit(0, 2, DELETE))
        assert graph_distance(path4, g2) == 0
        assert graph_distance(g2, path4) == 0
        g1.adjacency()
        g3 = apply_edit(g1, EdgeEdit(0, 2, DELETE))
        assert graph_distance(path4, g3) == 0
        assert graph_distance(g1, g3) == 1

    def test_derived_distance_reads_flips_without_splicing(self, path4):
        g = apply_edits(path4, [EdgeEdit(0, 2, ADD), EdgeEdit(1, 2, DELETE)])
        assert graph_distance(path4, g) == 2
        assert g._adj_csr is None

    def test_counts_symmetric_difference(self):
        ga = make_graph(4, [(0, 1), (1, 2)])
        gb = make_graph(4, [(1, 2), (2, 3), (0, 3)])
        assert graph_distance(ga, gb) == 3

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_derived_graph_counts_net_flips(self, data):
        # a derived graph shares its untouched neighbor sets with the base
        n = data.draw(st.integers(2, 8))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        base = make_graph(n, data.draw(st.lists(st.sampled_from(all_pairs),
                                                unique=True)))
        g = base
        for pair in data.draw(st.lists(st.sampled_from(all_pairs), max_size=10)):
            sign = DELETE if g.has_edge(*pair) else ADD
            g = apply_edit(g, EdgeEdit(*pair, sign))
        want = len(set(base.edges()) ^ set(g.edges()))
        assert graph_distance(base, g) == want
        assert graph_distance(g, base) == want


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
            e = flip_edit(ga, 0, candidate_edits(ga, 0)[int(rng.integers(n - 1))])
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
        cands = [flip_edit(path4, 0, v) for v in candidate_edits(path4, 0)]
        assert len(cands) == 3
        signs = {(e.u, e.v): e.sign for e in cands}
        assert signs[(0, 1)] == DELETE
        assert signs[(0, 2)] == ADD
        assert signs[(0, 3)] == ADD

    def test_sorted_by_other_endpoint(self, path4):
        edits = [flip_edit(path4, 2, v) for v in candidate_edits(path4, 2)]
        others = [e.v if e.u == 2 else e.u for e in edits]
        assert others == sorted(others)

    def test_accessible_restriction(self, path4):
        cands = [flip_edit(path4, 0, v)
                 for v in candidate_edits(path4, 0, accessible=[2, 3])]
        assert {(e.u, e.v) for e in cands} == {(0, 2), (0, 3)}

    def test_empty_pool_raises(self, path4):
        with pytest.raises(NoCandidatesError):
            candidate_edits(path4, 0, accessible=[0])

    def test_apply_edits_sequence(self, path4):
        edits = [flip_edit(path4, 0, v)
                 for v in candidate_edits(path4, 0, accessible=[2, 3])]
        g2 = apply_edits(path4, edits)
        assert graph_distance(path4, g2) == 2

    @settings(max_examples=300)
    @given(st.data())
    def test_flip_edits_match_object_oracle(self, data):
        # root and derived graphs, isolated targets, out-of-range targets,
        # and accessible pools that are unsorted, repeat nodes, hold the
        # target, hold out-of-range nodes or leave no candidate
        n = data.draw(st.integers(1, 10))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, data.draw(st.lists(st.sampled_from(all_pairs),
                                             unique=True)) if all_pairs else [])
        if all_pairs:
            for pair in data.draw(st.lists(st.sampled_from(all_pairs),
                                           max_size=8)):
                g = apply_edit(g, flip_edit(g, *pair))
        t = data.draw(st.integers(-1, n))
        if 0 <= t < n and data.draw(st.booleans()):
            for v in sorted(g.neighbors(t)):
                g = apply_edit(g, EdgeEdit(t, v, DELETE))
        accessible = data.draw(
            st.none()
            | st.lists(st.integers(0, n - 1), max_size=12)
            | st.lists(st.integers(-2, n + 1), max_size=12))
        if accessible is not None and data.draw(st.booleans()):
            accessible = np.array(accessible, dtype=np.int64)

        def outcome(build):
            try:
                return build()
            except (DataError, NoCandidatesError) as exc:
                return type(exc)

        want = outcome(lambda: candidate_edits_oracle(g, t, accessible))
        others = outcome(lambda: candidate_edits(g, t, accessible))
        if isinstance(want, type):
            assert others is want
            return
        assert others.dtype == np.int64 and len(others) == len(want)
        got = [flip_edit(g, t, v) for v in others]
        assert got == want
        assert all(type(e.u) is int and type(e.v) is int for e in got)


class TestFlipNeighborhoods:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_match_overlay_oracle(self, data):
        # roots and derived graphs, spliced or not; any subset of the
        # candidates, with t's neighborhood passed in or found inside
        n = data.draw(st.integers(2, 12))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = make_graph(n, data.draw(st.lists(st.sampled_from(all_pairs),
                                             unique=True)))
        for pair in data.draw(st.lists(st.sampled_from(all_pairs),
                                       max_size=6)):
            g = apply_edit(g, flip_edit(g, *pair))
        if data.draw(st.booleans()):
            g.adjacency()
        t = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, 4))
        pool = candidate_edits(g, t)
        others = np.array(sorted(data.draw(st.sets(st.sampled_from(
            pool.tolist()), min_size=1))), dtype=np.int64)
        hood = k_hop_neighborhood(g, t, k) if data.draw(st.booleans()) else None
        keys = flip_neighborhoods(g, t, k, others, hood)
        assert keys.dtype == np.int64
        assert np.array_equal(keys, np.unique(keys))
        cand, nodes = np.divmod(keys, n)
        for c, v in enumerate(others.tolist()):
            want = khop_oracle(apply_edit(g, flip_edit(g, t, v)), t, k)
            assert frozenset(nodes[cand == c].tolist()) == want

    def test_adds_need_no_overlay(self, monkeypatch):
        # a path 0 - 1 - 2 - 3 - 4: only the deletion (0, 1) derives a graph
        from nbrattack import graphs as graphs_mod
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        derived = []

        def counting(graph, edit):
            derived.append(edit)
            return apply_edit(graph, edit)

        monkeypatch.setattr(graphs_mod, "apply_edit", counting)
        keys = flip_neighborhoods(g, 0, 2, np.arange(1, 5))
        assert derived == [EdgeEdit(0, 1, DELETE)]
        cand, nodes = np.divmod(keys, 5)
        assert [nodes[cand == c].tolist() for c in range(4)] == \
            [[0], [0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]


class TestSparseViews:
    """A derived graph splices its flips into its ancestor's CSR."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_splice_matches_scratch_build(self, data):
        n = data.draw(st.integers(2, 12))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = set(data.draw(st.lists(st.sampled_from(all_pairs), unique=True)))
        g = make_graph(n, sorted(want))
        if data.draw(st.booleans()):
            g.adjacency()
        steps = data.draw(st.lists(
            st.tuples(st.sampled_from(all_pairs), st.booleans(), st.booleans()),
            max_size=15))
        for pair, twice, build in steps:
            for _ in range(1 + twice):  # a second flip of a pair undoes the first
                sign = DELETE if pair in want else ADD
                g = apply_edit(g, EdgeEdit(*pair, sign))
                want ^= {pair}
            if build:
                g.adjacency()
        scratch = Graph(n, sorted(want), g.features)
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
        star = [(0, v) for v in range(1, 51)]
        assert_same_csr(g.adjacency(), Graph(n, star, g.features).adjacency())


def assert_matches_edge_set(g, edges):
    """Every structural query of g against a pure-Python edge-set oracle."""
    n = g.node_count
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    assert g.edge_count == len(edges)
    assert list(g.edges()) == sorted(edges)
    for u in range(n):
        row = g.neighbors(u)
        assert row.dtype == np.int64 and not row.flags.writeable
        assert row.tolist() == sorted(nbrs[u])
        assert g.degree(u) == len(nbrs[u])
        assert [g.has_edge(u, v) for v in range(n)] == [v in nbrs[u]
                                                        for v in range(n)]
        hood = frontier = {u}
        for k in range(4):
            got = k_hop_neighborhood(g, u, k)
            assert got.dtype == np.int64 and got.tolist() == sorted(hood)
            frontier = set().union(*(nbrs[x] for x in frontier)) - hood
            hood = hood | frontier


class TestOverlay:
    """A derived graph answers queries through its base's CSR and its flips,
    whether or not it, its parent or its base has spliced."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_queries_match_edge_set_oracle(self, data):
        n = data.draw(st.integers(2, 9))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = set(data.draw(st.lists(st.sampled_from(all_pairs), unique=True)))
        g = make_graph(n, sorted(edges))
        chain = [(g, edges)]
        steps = data.draw(st.lists(st.tuples(st.sampled_from(all_pairs),
                                             st.sampled_from(range(-1, 12))),
                                   max_size=12))
        for pair, build in steps:
            g = apply_edit(g, EdgeEdit(*pair, DELETE if pair in edges else ADD))
            edges = edges ^ {pair}
            chain.append((g, edges))
            if 0 <= build < len(chain):  # splice some graph of the chain
                chain[build][0].adjacency()
        for g, edges in chain:
            assert_matches_edge_set(g, edges)
        for ga, ea in chain:  # splices every graph of the chain
            for gb, eb in chain:
                assert graph_distance(ga, gb) == len(ea ^ eb)
        for g, edges in chain:
            assert_matches_edge_set(g, edges)
