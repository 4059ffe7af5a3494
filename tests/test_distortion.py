import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack import distortion as distortion_mod
from nbrattack.distortion import (embedding_distortion, flip_base,
                                  flip_distortions, flip_tables,
                                  graph_pair_distortion, mean_l2_to_set,
                                  single_flip_distortions)
from nbrattack.embed import (EmbeddingTable, GinParams, embedding_forward,
                             gin_forward)
from nbrattack.errors import DataError, NoCandidatesError
from nbrattack.graphs import (ADD, EdgeEdit, apply_edit, candidate_edits,
                              flip_edit, k_hop_neighborhood)
from nbrattack.numerics import rng_from_seed
from nbrattack.sbm import generate_sbm
from tests.conftest import make_graph, random_model


def table_from(values):
    return EmbeddingTable(values=np.asarray(values, dtype=float), backend="gin")


class TestMeanL2:
    def test_hand_value(self):
        z = table_from([[0.0, 0.0], [3.0, 4.0], [0.0, 2.0]])
        # distances from node 0: 5.0 and 2.0
        assert mean_l2_to_set(z, 0, {1, 2}) == pytest.approx(3.5)

    def test_target_excluded(self):
        z = table_from([[0.0, 0.0], [3.0, 4.0]])
        with_self = mean_l2_to_set(z, 0, {0, 1})
        without = mean_l2_to_set(z, 0, {1})
        assert with_self == without == pytest.approx(5.0)

    def test_empty_set(self):
        z = table_from([[1.0], [2.0]])
        assert mean_l2_to_set(z, 0, set()) == 0.0
        assert mean_l2_to_set(z, 0, {0}) == 0.0

    def test_range_checks(self):
        z = table_from([[1.0], [2.0]])
        with pytest.raises(DataError):
            mean_l2_to_set(z, 5, {0})
        with pytest.raises(DataError):
            mean_l2_to_set(z, 0, {0, 9})


class TestEmbeddingDistortion:
    def test_identical_sets_zero(self):
        z = table_from(rng_from_seed(0).normal(size=(6, 3)))
        score = embedding_distortion(z, 2, {0, 1, 2}, {0, 1, 2})
        assert score.value == 0.0
        assert score.d_orig == score.d_pert

    def test_sign_when_target_moves_away(self):
        # target 0; original hood {1}, perturbed hood {2};
        # 1 is far, 2 is close -> positive distortion
        z = table_from([[0.0, 0.0], [10.0, 0.0], [1.0, 0.0]])
        score = embedding_distortion(z, 0, {0, 1}, {0, 2})
        assert score.d_orig == pytest.approx(10.0)
        assert score.d_pert == pytest.approx(1.0)
        assert score.value == pytest.approx(9.0)

    def test_value_is_difference(self):
        z = table_from(rng_from_seed(1).normal(size=(8, 2)))
        score = embedding_distortion(z, 3, {0, 1, 3}, {3, 5, 6, 7})
        assert score.value == pytest.approx(score.d_orig - score.d_pert)


class TestGraphPairDistortion:
    def test_no_edit_gives_zero(self, small_sbm):
        params = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(0))
        score = graph_pair_distortion(params, small_sbm, small_sbm, 0, 2)
        assert score.value == 0.0

    def test_matches_manual_composition(self, small_sbm):
        params = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(0))
        t = 0
        edit = EdgeEdit(t, 11, ADD) if not small_sbm.has_edge(t, 11) \
            else EdgeEdit(t, 11, "delete")
        g2 = apply_edit(small_sbm, edit)
        got = graph_pair_distortion(params, small_sbm, g2, t, 2)
        z2 = gin_forward(params, g2)
        want = embedding_distortion(
            z2, t,
            k_hop_neighborhood(small_sbm, t, 2),
            k_hop_neighborhood(g2, t, 2))
        assert got.value == pytest.approx(want.value, abs=1e-15)
        assert got.d_orig == pytest.approx(want.d_orig, abs=1e-15)

    def test_scale_invariance_of_sign(self):
        # scaling every embedding by c > 0 scales the score linearly,
        # so comparisons between candidate edits are scale-independent
        z = rng_from_seed(3).normal(size=(6, 3))
        a = embedding_distortion(table_from(z), 0, {1, 2}, {3, 4})
        b = embedding_distortion(table_from(2.5 * z), 0, {1, 2}, {3, 4})
        assert b.value == pytest.approx(2.5 * a.value)

    def test_rotation_invariance(self):
        z = rng_from_seed(4).normal(size=(6, 3))
        # a random orthogonal matrix
        q, _ = np.linalg.qr(rng_from_seed(5).normal(size=(3, 3)))
        a = embedding_distortion(table_from(z), 0, {1, 2, 3}, {2, 4})
        b = embedding_distortion(table_from(z @ q), 0, {1, 2, 3}, {2, 4})
        assert b.value == pytest.approx(a.value, abs=1e-12)

    def test_isolated_target(self):
        g = make_graph(4, [(1, 2)])
        params = GinParams.init(4, 3, 1, rng_from_seed(6))
        g2 = apply_edit(g, EdgeEdit(0, 1, ADD))
        score = graph_pair_distortion(params, g, g2, 0, 2)
        # original hood is just {0} -> d_orig = 0; new hood nonempty
        assert score.d_orig == 0.0
        assert score.d_pert > 0.0


class TestSingleFlipDistortions:
    def test_reference_values_in_candidate_order(self, small_sbm):
        params = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(0))
        for t in (0, 7):
            n_orig = k_hop_neighborhood(small_sbm, t, 2)
            rows = list(single_flip_distortions(params, small_sbm, t, 2,
                                                n_orig))
            others = candidate_edits(small_sbm, t)
            assert [e for e, _, _, _ in rows] == \
                [flip_edit(small_sbm, t, v) for v in others]
            for edit, g_pert, z_pert, value in rows:
                assert set(g_pert.edges()) == \
                    set(apply_edit(small_sbm, edit).edges())
                assert np.array_equal(z_pert.values,
                                      gin_forward(params, g_pert).values)
                assert value == graph_pair_distortion(
                    params, small_sbm, g_pert, t, 2).value

    def test_callable_source_and_accessible(self, small_sbm):
        params = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(1))
        seen = []

        def source(graph):
            seen.append(graph)
            return gin_forward(params, graph)

        n_orig = k_hop_neighborhood(small_sbm, 3, 2)
        rows = list(single_flip_distortions(source, small_sbm, 3, 2, n_orig,
                                            accessible=[9, 3, 1]))
        assert [e.v if e.u == 3 else e.u for e, _, _, _ in rows] == [1, 9]
        assert [g for _, g, _, _ in rows] == seen


def assert_matches_reference(model, g, t, k):
    """flip_distortions against single_flip_distortions on one target:
    candidate order, each value to 1e-12, and the argmax wherever the
    reference's top two are more than 1e-9 apart."""
    n_orig = k_hop_neighborhood(g, t, k)
    rows = list(single_flip_distortions(model, g, t, k, n_orig))
    want = np.array([value for _, _, _, value in rows])
    others, got = flip_distortions(flip_base(model, g), t, k, n_orig)
    assert [flip_edit(g, t, v) for v in others] == [e for e, _, _, _ in rows]
    assert np.abs(got - want).max() <= 1e-12
    if want.size > 1 and np.diff(np.sort(want)[-2:])[0] > 1e-9:
        assert np.argmax(got) == np.argmax(want)


class TestFlipDistortions:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reembedding(self, data):
        n = data.draw(st.integers(2, 2 * distortion_mod._FLIP_CHUNK + 3),
                      label="n")
        rng = rng_from_seed(data.draw(st.integers(0, 1 << 16), label="seed"))
        density = data.draw(st.sampled_from([0.05, 0.2, 0.5]), label="p")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [e for e in pairs if rng.random() < density]
        t = data.draw(st.integers(0, n - 1), label="t")
        shape = data.draw(st.sampled_from(["plain", "isolated", "hub"]),
                          label="shape")
        if shape == "isolated":
            edges = [e for e in edges if t not in e]
        elif shape == "hub":
            edges = sorted({*edges, *((min(t, x), max(t, x))
                                      for x in range(n) if x != t)})
        g = make_graph(n, edges)
        for _ in range(data.draw(st.integers(0, 3), label="derived")):
            u, v = rng.choice(n, size=2, replace=False).tolist()
            g = apply_edit(g, flip_edit(g, u, v))
        model = random_model(data.draw(st.sampled_from(["gin", "gcn"])), n,
                             data.draw(st.integers(1, 3), label="layers"),
                             int(rng.integers(1 << 16)))
        assert_matches_reference(model, g, t, data.draw(st.integers(1, 3),
                                                         label="k"))

    @pytest.mark.parametrize("backend", ["gin", "gcn"])
    def test_named_shapes_over_several_chunks(self, backend):
        # 75 candidates span three chunks. In the root, node 0 is isolated
        # and node 1 adjacent to all but 0; the derived graph adds (0, 1),
        # so there node 1 is adjacent to every other node
        root = generate_sbm([38, 38], 0.3, 0.05, seed=5)
        edges = [e for e in root.edges() if 0 not in e]
        edges = sorted({*edges, *((1, x) for x in range(2, 76))})
        g = make_graph(76, edges)
        derived = apply_edit(apply_edit(g, flip_edit(g, 2, 3)),
                             EdgeEdit(0, 1, ADD))
        assert 75 > 2 * distortion_mod._FLIP_CHUNK
        for graph in (g, derived):
            for layers in (1, 2, 3):
                model = random_model(backend, 76, layers, layers)
                for t in (0, 1, 40):
                    assert_matches_reference(model, graph, t, 2)

    @pytest.mark.parametrize("backend", ["gin", "gcn"])
    def test_patched_tables_match_forward(self, backend, small_sbm):
        for layers in (1, 2, 3):
            model = random_model(backend, small_sbm.node_count, layers, 9)
            base = flip_base(model, small_sbm)
            assert np.array_equal(base.table.values,
                                  embedding_forward(model, small_sbm).values)
            for t in (0, 7):
                rows = list(flip_tables(base, t))
                assert [e for e, _ in rows] == [
                    flip_edit(small_sbm, t, v)
                    for v in candidate_edits(small_sbm, t)]
                for edit, z_pert in rows:
                    want = embedding_forward(model, apply_edit(small_sbm, edit))
                    assert z_pert.backend == want.backend
                    assert np.abs(z_pert.values - want.values).max() <= 1e-12

    @pytest.mark.parametrize("backend", ["gin", "gcn"])
    def test_accessible_restricts_candidates(self, backend, small_sbm):
        model = random_model(backend, small_sbm.node_count, 2, 3)
        n_orig = k_hop_neighborhood(small_sbm, 3, 2)
        accessible = [9, 3, 1, 9, 4]
        others, got = flip_distortions(flip_base(model, small_sbm), 3, 2,
                                       n_orig, accessible)
        rows = list(single_flip_distortions(model, small_sbm, 3, 2, n_orig,
                                            accessible))
        assert others.tolist() == [1, 4, 9]
        assert [flip_edit(small_sbm, 3, v) for v in others] == \
            [e for e, _, _, _ in rows]
        want = np.array([value for _, _, _, value in rows])
        assert np.abs(got - want).max() <= 1e-12

    def test_no_candidates(self):
        g = make_graph(1, [])
        base = flip_base(GinParams.init(1, 2, 1, rng_from_seed(0)), g)
        with pytest.raises(NoCandidatesError):
            flip_distortions(base, 0, 2, k_hop_neighborhood(g, 0, 2))

    def test_unknown_model(self, small_sbm):
        with pytest.raises(DataError):
            flip_base(object(), small_sbm)
