import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrattack.errors import TrainingError
from nbrattack.graphs import Graph
from nbrattack.numerics import (Adam, AdamState, adam_update, gcn_backward,
                                gcn_forward, neg_log_sigmoid, rng_from_seed,
                                sigmoid, stage_seed, xavier_uniform)
from tests.conftest import finite_diff_check


def adam_oracle(theta, grads, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Transcription of the standard update, step by step, no vectorized state."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    out = theta.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        out = out - lr * mhat / (np.sqrt(vhat) + eps)
    return out


class TestSeeds:
    def test_stage_seed_deterministic_and_distinct(self):
        a = stage_seed(7, "embed")
        b = stage_seed(7, "embed")
        c = stage_seed(7, "attack")
        d = stage_seed(8, "embed")
        assert a == b
        assert a != c and a != d

    def test_rng_reproducible(self):
        r1 = rng_from_seed(123).random(5)
        r2 = rng_from_seed(123).random(5)
        assert np.array_equal(r1, r2)


class TestActivations:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(-500, 500))
    def test_sigmoid_bounded(self, x):
        s = sigmoid(np.array([x]))[0]
        assert 0.0 <= s <= 1.0

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_neg_log_sigmoid_floor(self):
        # at large x sigmoid rounds to 1; the floor keeps the log finite
        val = neg_log_sigmoid(np.array([800.0]))[0]
        assert np.isfinite(val)
        assert val >= 0.0

    def test_neg_log_sigmoid_matches_direct(self):
        x = np.linspace(-5, 5, 11)
        direct = -np.log(1 / (1 + np.exp(-x)))
        assert np.allclose(neg_log_sigmoid(x), direct, atol=1e-12)


class TestXavier:
    def test_shape_and_scale(self):
        w = xavier_uniform(rng_from_seed(0), 30, 40)
        assert w.shape == (30, 40)
        bound = np.sqrt(6.0 / 70.0)
        assert w.max() <= bound and w.min() >= -bound
        # should actually use the range, not collapse near zero
        assert w.std() > bound / 4


class TestAdam:
    def test_matches_oracle_over_steps(self):
        rng = np.random.default_rng(3)
        theta0 = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(7)]

        state = AdamState.init_like(theta0, lr=0.01)
        theta = theta0.copy()
        for g in grads:
            theta = adam_update(theta, g, state)
        assert np.allclose(theta, adam_oracle(theta0, grads), atol=1e-12)

    def test_dict_interface_matches_single(self):
        rng = np.random.default_rng(4)
        p0 = {"w": rng.normal(size=(2, 2)), "b": rng.normal(size=(2,))}
        gs = [{"w": rng.normal(size=(2, 2)), "b": rng.normal(size=(2,))}
              for _ in range(5)]
        opt = Adam(lr=0.05)
        params = p0
        for g in gs:
            params = opt.step(params, g)
        assert np.allclose(params["w"], adam_oracle(p0["w"], [g["w"] for g in gs], lr=0.05))
        assert np.allclose(params["b"], adam_oracle(p0["b"], [g["b"] for g in gs], lr=0.05))

    def test_nonfinite_gradient_rejected(self):
        theta = np.zeros(3)
        state = AdamState.init_like(theta)
        bad = np.array([1.0, np.inf, 0.0])
        with pytest.raises(TrainingError):
            adam_update(theta, bad, state)

    def test_descends_quadratic(self):
        theta = np.array([5.0, -3.0])
        state = AdamState.init_like(theta, lr=0.05)
        for _ in range(2000):
            theta = adam_update(theta, 2 * theta, state)
        assert np.abs(theta).max() < 1e-3


class TestFiniteDiff:
    def test_accepts_true_gradient(self):
        w = np.array([1.0, 2.0, -0.5])

        def loss(p):
            return float(np.sum(p ** 2))

        rel = finite_diff_check(loss, w, 2 * w)
        assert rel < 1e-6

    def test_flags_wrong_gradient(self):
        w = np.array([1.0, 2.0, -0.5])

        def loss(p):
            return float(np.sum(p ** 2))

        rel = finite_diff_check(loss, w, 3 * w)
        assert rel > 1e-2


class TestGcnKernel:
    @settings(max_examples=30, deadline=None)
    @given(depth=st.integers(1, 3), biased=st.booleans(),
           one_hot=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_gradients_match_finite_differences(self, depth, biased, one_hot,
                                                seed):
        rng = np.random.default_rng(seed)
        n, feature_dim, hidden = 7, 3, 4
        # random edges among the first n-1 nodes; node n-1 is isolated
        edges = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)
                 if rng.random() < 0.4]
        g = Graph(n, edges, rng.normal(size=(n, feature_dim)))
        s = g.normalized_adjacency()
        x = None if one_hot else g.features
        in_dim = n if one_hot else feature_dim
        weights = [rng.normal(size=(in_dim if i == 0 else hidden, hidden))
                   for i in range(depth)]
        biases = ([rng.normal(size=hidden) for _ in range(depth)]
                  if biased else None)
        d_out = rng.normal(size=(n, hidden))
        out, cache = gcn_forward(s, x, weights, biases)
        if one_hot:
            dense, _ = gcn_forward(s, np.eye(n), weights, biases)
            assert np.allclose(out, dense, atol=1e-12)
        dws, dbs = gcn_backward(s, weights, cache, d_out)

        def loss(ws, bs):
            return float(np.sum(gcn_forward(s, x, ws, bs)[0] * d_out))

        def swap(arrs, i, arr):
            return arrs[:i] + [arr] + arrs[i + 1:]

        for i in range(depth):
            assert finite_diff_check(
                lambda w: loss(swap(weights, i, w), biases),
                weights[i], dws[i]) < 1e-6
            if biased:
                assert finite_diff_check(
                    lambda b: loss(weights, swap(biases, i, b)),
                    biases[i], dbs[i]) < 1e-6
