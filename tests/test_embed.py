import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbrattack.embed as embed_module
from nbrattack import io as fileio
from nbrattack.embed import (EmbedConfig, EmbeddingTable, GcnEmbedParams,
                             GinParams, WalkConfig, _batch_negatives,
                             _WordStream, embedding_forward,
                             gcn_embed_forward, gin_forward, load_embed_model,
                             sample_positive_walks, save_embed_model,
                             save_embedding, train_embedding, train_gin,
                             unsup_loss)
from nbrattack.errors import DataError, SamplingError
from nbrattack.numerics import neg_log_sigmoid, rng_from_seed, sigmoid
from tests.conftest import finite_diff_check, make_graph


def negative_sample(g, v, count, rng):
    """`count` distinct non-neighbors of v (v excluded), uniform.

    Reference for `_batch_negatives`: an exact per-node draw without
    rejection sampling.
    """
    if not (0 <= v < g.node_count):
        raise DataError(f"node {v} out of range")
    eligible = np.array([x for x in range(g.node_count)
                         if x != v and not g.has_edge(v, x)], dtype=np.int64)
    if eligible.size < count:
        raise SamplingError(
            f"need {count} negatives for node {v}, only {eligible.size} eligible")
    return rng.choice(eligible, size=count, replace=False)


def load_embedding(path):
    """Reader for `save_embedding`'s file; no stage reads embedding.bin."""
    meta, arrays = fileio.read_blob(path)
    if meta.get("kind") != "embedding":
        raise DataError(f"{path}: not an embedding file")
    table = EmbeddingTable(values=arrays["values"], backend=meta["backend"])
    if table.node_count != meta["node_count"] or table.dim != meta["dim"]:
        raise DataError(f"{path}: header does not match stored values")
    return table


def walk_pairs_oracle(g, cfg, rng):
    """Reference walk-and-pair builder: one walk at a time, one Python
    append per context pair, and a per-neighbor has_edge loop on biased
    steps."""
    csr = g.adjacency()
    indptr, indices = csr.indptr, csr.indices
    p, q = cfg.return_p, cfg.inout_q
    pairs = []
    for _ in range(cfg.walks_per_node):
        for start in range(g.node_count):
            walk = [start]
            while len(walk) < cfg.walk_length:
                cur = walk[-1]
                row = indices[indptr[cur]:indptr[cur + 1]]
                if row.size == 0:
                    break
                if (p == 1.0 and q == 1.0) or len(walk) == 1:
                    nxt = int(row[rng.integers(row.size)])
                else:
                    prev = walk[-2]
                    w = np.ones(row.size)
                    w[row == prev] = 1.0 / p
                    far = np.array([not g.has_edge(int(x), prev) and int(x) != prev
                                    for x in row])
                    w[far] = 1.0 / q
                    w /= w.sum()
                    nxt = int(row[rng.choice(row.size, p=w)])
                walk.append(nxt)
            for i in range(len(walk) - 1):
                for j in range(i + 1, min(i + cfg.context_size, len(walk) - 1) + 1):
                    pairs.append((walk[i], walk[j]))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def unsup_loss_oracle(z, positives, negatives):
    """Reference loss: (P, d) products scattered by four np.add.at calls."""
    loss = 0.0
    dz = np.zeros_like(z)
    if positives.size:
        c, x = positives[:, 0], positives[:, 1]
        s = np.einsum("ij,ij->i", z[c], z[x])
        loss += float(np.mean(neg_log_sigmoid(s)))
        coef = (sigmoid(s) - 1.0) / len(s)
        np.add.at(dz, c, coef[:, None] * z[x])
        np.add.at(dz, x, coef[:, None] * z[c])
    if negatives.size:
        c, x = negatives[:, 0], negatives[:, 1]
        s = np.einsum("ij,ij->i", z[c], z[x])
        loss += float(np.mean(neg_log_sigmoid(-s)))
        coef = sigmoid(s) / len(s)
        np.add.at(dz, c, coef[:, None] * z[x])
        np.add.at(dz, x, coef[:, None] * z[c])
    return loss, dz


def dense_gin_oracle(params, g):
    """Explicit one-hot forward, no sparse shortcuts."""
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    h = np.eye(n)
    for lay in params.layers:
        m = (1.0 + float(lay.eps)) * h + a @ h
        act = np.maximum(m @ lay.w1 + lay.b1, 0.0)
        h = act @ lay.w2 + lay.b2
    return h


def dense_gcn_oracle(params, g):
    n = g.node_count
    a = np.zeros((n, n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    s = dinv[:, None] * a * dinv[None, :]
    h = np.eye(n)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        lin = s @ h @ w + b
        h = lin if i == last else np.maximum(lin, 0.0)
    return h


class TestGinForward:
    def test_matches_dense_oracle(self, small_sbm):
        params = GinParams.init(small_sbm.node_count, 5, 2, rng_from_seed(1))
        # nonzero eps so the (1+eps) paths are exercised
        for lay in params.layers:
            lay.eps[...] = 0.3
        got = gin_forward(params, small_sbm).values
        want = dense_gin_oracle(params, small_sbm)
        assert np.allclose(got, want, atol=1e-12)

    def test_single_layer(self, path4):
        params = GinParams.init(4, 3, 1, rng_from_seed(2))
        got = gin_forward(params, path4).values
        assert np.allclose(got, dense_gin_oracle(params, path4), atol=1e-12)

    def test_node_count_mismatch(self, path4):
        params = GinParams.init(9, 3, 1, rng_from_seed(0))
        with pytest.raises(DataError):
            gin_forward(params, path4)

    def test_param_dict_round_trip(self):
        params = GinParams.init(5, 4, 2, rng_from_seed(3))
        d = params.param_dict()
        assert set(d) == {f"{i}.{n}" for i in range(2)
                          for n in ("eps", "w1", "b1", "w2", "b2")}
        rebuilt = params.with_params(d)
        assert np.array_equal(rebuilt.layers[1].w1, params.layers[1].w1)


class TestGcnForward:
    def test_matches_dense_oracle(self, small_sbm):
        params = GcnEmbedParams.init(small_sbm.node_count, 5, 2, rng_from_seed(4))
        got = gcn_embed_forward(params, small_sbm).values
        assert np.allclose(got, dense_gcn_oracle(params, small_sbm), atol=1e-12)

    def test_three_layers(self, triangle_plus):
        params = GcnEmbedParams.init(5, 4, 3, rng_from_seed(5))
        got = gcn_embed_forward(params, triangle_plus).values
        assert np.allclose(got, dense_gcn_oracle(params, triangle_plus), atol=1e-12)

    def test_dispatch(self, path4):
        gp = GinParams.init(4, 3, 1, rng_from_seed(0))
        cp = GcnEmbedParams.init(4, 3, 1, rng_from_seed(0))
        assert embedding_forward(gp, path4).backend == "gin"
        assert embedding_forward(cp, path4).backend == "gcn"
        with pytest.raises(DataError):
            embedding_forward(object(), path4)


class TestGcnBackward:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_finite_diff_through_unsup_loss(self, layers):
        # node 7 is isolated and appears in both pair blocks
        g = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                           (1, 4)])
        model = GcnEmbedParams.init(8, 4, layers, rng_from_seed(3))
        noise = rng_from_seed(4)  # nonzero biases
        model = model.with_params({k: v + 0.1 * noise.normal(size=v.shape)
                                   for k, v in model.param_dict().items()})
        pos = np.array([[0, 1], [1, 2], [3, 4], [5, 6], [2, 4], [7, 0]])
        neg = np.array([[0, 7], [2, 6], [1, 5]])
        values, cache = embed_module._gcn_embed_forward_cached(model, g)
        _, dz = unsup_loss(EmbeddingTable(values, "gcn"), pos, neg)
        grads = embed_module._gcn_embed_backward(model, g, cache, dz)
        base = model.param_dict()
        assert set(grads) == set(base)
        for name in base:
            def loss_fn(arr, name=name):
                params = {k: (arr if k == name else v) for k, v in base.items()}
                table = gcn_embed_forward(model.with_params(params), g)
                return unsup_loss(table, pos, neg)[0]
            assert finite_diff_check(loss_fn, base[name], grads[name]) < 1e-6, name


class TestWalks:
    def test_shape_and_range(self, small_sbm):
        cfg = WalkConfig(walk_length=6, context_size=3, walks_per_node=2)
        pairs = sample_positive_walks(small_sbm, cfg, rng_from_seed(0))
        assert pairs.dtype == np.int64
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        assert pairs.min() >= 0 and pairs.max() < small_sbm.node_count

    def test_deterministic_per_seed(self, small_sbm):
        cfg = WalkConfig(walk_length=5, context_size=2, walks_per_node=1)
        a = sample_positive_walks(small_sbm, cfg, rng_from_seed(7))
        b = sample_positive_walks(small_sbm, cfg, rng_from_seed(7))
        assert np.array_equal(a, b)

    def test_context_one_yields_only_edges(self, small_sbm):
        # adjacent walk positions are always joined by an edge
        cfg = WalkConfig(walk_length=8, context_size=1, walks_per_node=2)
        pairs = sample_positive_walks(small_sbm, cfg, rng_from_seed(1))
        for c, x in pairs:
            assert small_sbm.has_edge(int(c), int(x))

    def test_window_respects_context_size(self):
        # a path forces every walk to be a contiguous segment, so the pair
        # (c, x) can only appear if dist(c, x) <= context_size
        g = make_graph(6, [(i, i + 1) for i in range(5)])
        cfg = WalkConfig(walk_length=6, context_size=2, walks_per_node=3)
        pairs = sample_positive_walks(g, cfg, rng_from_seed(2))
        assert np.abs(pairs[:, 0] - pairs[:, 1]).max() <= 2

    def test_edgeless_graph_yields_no_pairs(self):
        g = make_graph(4, [])
        cfg = WalkConfig(walk_length=4, context_size=2, walks_per_node=2)
        pairs = sample_positive_walks(g, cfg, rng_from_seed(0))
        assert pairs.shape == (0, 2)

    def test_bad_config(self, path4):
        with pytest.raises(DataError):
            sample_positive_walks(path4, WalkConfig(walk_length=0), rng_from_seed(0))

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_oracle_exactly(self, data):
        # small graphs with isolated nodes, biased and uniform steps, walks
        # of length 1 and windows longer than the walk
        n = data.draw(st.integers(1, 9))
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs), unique=True)
                          if all_pairs else st.just([]))
        g = make_graph(n, edges)
        biases = st.sampled_from([1.0, 0.25, 0.5, 2.0, 4.0])
        cfg = WalkConfig(walk_length=data.draw(st.integers(1, 7)),
                         context_size=data.draw(st.integers(1, 9)),
                         walks_per_node=data.draw(st.integers(1, 3)),
                         return_p=data.draw(biases),
                         inout_q=data.draw(biases))
        seed = data.draw(st.integers(0, 2**32 - 1))
        got_rng, want_rng = rng_from_seed(seed), rng_from_seed(seed)
        got = sample_positive_walks(g, cfg, got_rng)
        want = walk_pairs_oracle(g, cfg, want_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_leaf_heavy_graph_matches_oracle(self):
        # a random recursive tree, about half of whose nodes are leaves that
        # a step leaves without a draw, plus one isolated node whose walks
        # stop at the start; the default config spans several word blocks
        n = 200
        tree_rng = rng_from_seed(4)
        edges = [(int(tree_rng.integers(v)), v) for v in range(1, n)]
        g = make_graph(n + 1, edges)
        cfg = WalkConfig()
        got_rng, want_rng = rng_from_seed(9), rng_from_seed(9)
        got = sample_positive_walks(g, cfg, got_rng)
        want = walk_pairs_oracle(g, cfg, want_rng)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestWordStream:
    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_matches_generator_integers(self, block):
        # ranges near 3e9 reject about 30 % of words; d = 1 draws nothing
        draw_rng = rng_from_seed(21)
        ranges = np.where(draw_rng.random(20000) < 0.1, 1,
                          draw_rng.integers(3 * 10**9 - 1000, 3 * 10**9 + 1000,
                                            size=20000)).tolist()
        ranges += [2, 3, 2**31, 2**32 - 1, 1, 1]
        got_rng, want_rng = rng_from_seed(5), rng_from_seed(5)
        stream = _WordStream(got_rng, block)
        got = [stream.below(d) for d in ranges]
        stream.close()
        want = [int(want_rng.integers(d)) for d in ranges]
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_unit_ranges_draw_nothing(self):
        rng = rng_from_seed(3)
        before = rng.bit_generator.state
        stream = _WordStream(rng, 16)
        assert [stream.below(1) for _ in range(50)] == [0] * 50
        stream.close()
        assert rng.bit_generator.state == before


class TestNegatives:
    def test_distinct_non_neighbors(self, triangle_plus):
        # node 0 neighbors: 1, 2 -> eligible {3, 4}
        negs = negative_sample(triangle_plus, 0, 2, rng_from_seed(0))
        assert set(negs.tolist()) == {3, 4}

    def test_too_many_requested(self, triangle_plus):
        with pytest.raises(SamplingError):
            negative_sample(triangle_plus, 0, 3, rng_from_seed(0))

    def test_batch_avoids_edges_and_self(self, small_sbm):
        centers = np.arange(small_sbm.node_count, dtype=np.int64)
        pairs = _batch_negatives(small_sbm, centers, 3, rng_from_seed(0))
        assert pairs.shape == (small_sbm.node_count * 3, 2)
        for c, x in pairs:
            assert c != x
            assert not small_sbm.has_edge(int(c), int(x))

    def test_batch_on_edgeless_graph(self):
        g = make_graph(5, [])
        pairs = _batch_negatives(g, np.array([0, 1]), 2, rng_from_seed(0))
        assert pairs.shape == (4, 2)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_batch_full_graph_fails(self):
        n = 4
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        with pytest.raises(SamplingError):
            _batch_negatives(g, np.array([0]), 1, rng_from_seed(0))


class TestUnsupLoss:
    def test_loss_value_single_pair(self):
        z = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        table = EmbeddingTable(values=z, backend="gin")
        pos = np.array([[0, 1]])
        neg = np.array([[0, 2]])
        s_pos = z[0] @ z[1]
        s_neg = z[0] @ z[2]
        want = -np.log(1 / (1 + np.exp(-s_pos))) - np.log(1 / (1 + np.exp(s_neg)))
        loss, _ = unsup_loss(table, pos, neg)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = rng_from_seed(9)
        z = rng.normal(size=(5, 3))
        pos = np.array([[0, 1], [1, 2], [0, 3]])
        neg = np.array([[0, 4], [2, 4]])

        def loss_at(vals):
            return unsup_loss(EmbeddingTable(values=vals, backend="gin"),
                              pos, neg)[0]

        _, dz = unsup_loss(EmbeddingTable(values=z, backend="gin"), pos, neg)
        h = 1e-6
        for idx in np.ndindex(z.shape):
            zp, zm = z.copy(), z.copy()
            zp[idx] += h
            zm[idx] -= h
            num = (loss_at(zp) - loss_at(zm)) / (2 * h)
            assert num == pytest.approx(dz[idx], abs=1e-6)

    def test_empty_blocks(self):
        table = EmbeddingTable(values=np.ones((3, 2)), backend="gin")
        empty = np.empty((0, 2), dtype=np.int64)
        loss, dz = unsup_loss(table, empty, empty)
        assert loss == 0.0
        assert not dz.any()

    @settings(max_examples=150)
    @given(st.data())
    def test_matches_add_at_oracle_exactly(self, data):
        # empty blocks, repeated rows and self pairs included
        n = data.draw(st.integers(1, 6))
        dim = data.draw(st.integers(1, 4))
        z = rng_from_seed(data.draw(st.integers(0, 2**32 - 1))).normal(
            size=(n, dim))
        rows = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        max_size=12)
        pos = np.array(data.draw(rows), dtype=np.int64).reshape(-1, 2)
        neg = np.array(data.draw(rows), dtype=np.int64).reshape(-1, 2)
        loss, dz = unsup_loss(EmbeddingTable(values=z, backend="gin"), pos, neg)
        want_loss, want_dz = unsup_loss_oracle(z, pos, neg)
        assert loss == want_loss
        assert np.array_equal(dz, want_dz)

    def test_matches_add_at_oracle_across_chunks(self):
        # more rows than one scoring chunk, heavy repetition of targets
        rng = rng_from_seed(4)
        z = rng.normal(size=(50, 16))
        pos = rng.integers(0, 50, size=(150_000, 2))
        neg = rng.integers(0, 50, size=(70_000, 2))
        loss, dz = unsup_loss(EmbeddingTable(values=z, backend="gin"), pos, neg)
        want_loss, want_dz = unsup_loss_oracle(z, pos, neg)
        assert loss == want_loss
        assert np.array_equal(dz, want_dz)
        assert dz.flags.c_contiguous

    def test_means_not_sums(self):
        # duplicating every positive row must not change the loss
        z = rng_from_seed(2).normal(size=(4, 2))
        table = EmbeddingTable(values=z, backend="gin")
        pos = np.array([[0, 1], [2, 3]])
        neg = np.empty((0, 2), dtype=np.int64)
        l1, _ = unsup_loss(table, pos, neg)
        l2, _ = unsup_loss(table, np.vstack([pos, pos]), neg)
        assert l1 == pytest.approx(l2, abs=1e-12)


class TestTraining:
    def test_loss_decreases_and_shapes(self, small_sbm):
        cfg = EmbedConfig(hidden_dim=6, layer_count=2, epochs=8,
                          learning_rate=0.05)
        res = train_embedding(small_sbm, cfg, seed=0)
        assert len(res.losses) == 8
        assert res.losses[-1] < res.losses[0]
        assert res.table.values.shape == (small_sbm.node_count, 6)

    def test_deterministic(self, small_sbm):
        cfg = EmbedConfig(hidden_dim=4, layer_count=2, epochs=3)
        r1 = train_embedding(small_sbm, cfg, seed=5)
        r2 = train_embedding(small_sbm, cfg, seed=5)
        assert np.array_equal(r1.table.values, r2.table.values)
        assert r1.losses == r2.losses

    def test_gcn_backend(self, small_sbm):
        cfg = EmbedConfig(backend="gcn", hidden_dim=4, layer_count=2, epochs=3)
        res = train_embedding(small_sbm, cfg, seed=0)
        assert res.table.backend == "gcn"
        assert isinstance(res.model, GcnEmbedParams)

    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (0.5, 2.0)])
    def test_matches_oracle_training(self, small_sbm, monkeypatch, p, q):
        cfg = EmbedConfig(hidden_dim=4, layer_count=2, epochs=3,
                          walk=WalkConfig(walk_length=8, context_size=3,
                                          walks_per_node=2, return_p=p,
                                          inout_q=q))
        got = train_embedding(small_sbm, cfg, seed=3)
        monkeypatch.setattr(embed_module, "sample_positive_walks",
                            walk_pairs_oracle)
        monkeypatch.setattr(embed_module, "unsup_loss",
                            lambda t, pos, neg: unsup_loss_oracle(t.values, pos, neg))
        want = train_embedding(small_sbm, cfg, seed=3)
        assert got.losses == want.losses
        assert np.array_equal(got.table.values, want.table.values)

    def test_train_gin_returns_table(self, small_sbm):
        cfg = EmbedConfig(hidden_dim=4, layer_count=2, epochs=2)
        table = train_gin(small_sbm, cfg, seed=0)
        assert isinstance(table, EmbeddingTable)


class TestPersistence:
    def test_embedding_round_trip(self, tmp_path):
        table = EmbeddingTable(values=rng_from_seed(0).normal(size=(4, 3)),
                               backend="gcn")
        save_embedding(tmp_path / "e.bin", table)
        out = load_embedding(tmp_path / "e.bin")
        assert np.array_equal(out.values, table.values)
        assert out.backend == "gcn"

    def test_model_round_trip_gin(self, tmp_path, small_sbm):
        params = GinParams.init(small_sbm.node_count, 4, 2, rng_from_seed(1))
        save_embed_model(tmp_path / "m.bin", params)
        out = load_embed_model(tmp_path / "m.bin")
        assert isinstance(out, GinParams)
        z1 = gin_forward(params, small_sbm).values
        z2 = gin_forward(out, small_sbm).values
        assert np.array_equal(z1, z2)

    def test_model_round_trip_gcn(self, tmp_path, small_sbm):
        params = GcnEmbedParams.init(small_sbm.node_count, 4, 3, rng_from_seed(2))
        save_embed_model(tmp_path / "m.bin", params)
        out = load_embed_model(tmp_path / "m.bin")
        assert isinstance(out, GcnEmbedParams)
        assert len(out.weights) == 3
        z1 = gcn_embed_forward(params, small_sbm).values
        z2 = gcn_embed_forward(out, small_sbm).values
        assert np.array_equal(z1, z2)

    def test_wrong_kind_rejected(self, tmp_path):
        table = EmbeddingTable(values=np.zeros((2, 2)), backend="gin")
        save_embedding(tmp_path / "e.bin", table)
        with pytest.raises(DataError):
            load_embed_model(tmp_path / "e.bin")
