import time

import numpy as np
import pytest
from hypothesis import settings

from nbrattack.dqn import _action_from_mu, _mu_forward, infer_attack
from nbrattack.embed import GcnEmbedParams, GinParams
from nbrattack.errors import DataError
from nbrattack.graphs import ADD, Graph, k_hop_neighborhood
from nbrattack.numerics import rng_from_seed, sigmoid

# Property tests draw the same examples on every run, so two runs of the
# suite (say, before and after a change) test the same inputs.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def make_graph(n, edges, feature_dim=2, labels=None, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, feature_dim))
    return Graph(n, edges, features, labels)


def random_model(backend, n, layers, seed):
    """GIN or GCN embedding parameters; GIN gets a nonzero eps per layer,
    so the diagonal of each layer's propagation matrix differs."""
    rng = rng_from_seed(seed)
    if backend == "gcn":
        return GcnEmbedParams.init(n, 4, layers, rng)
    model = GinParams.init(n, 4, layers, rng)
    for lay in model.layers:
        lay.eps = np.asarray(rng.uniform(-0.5, 0.5))
    return model


# Q-function reference pieces, one forward per call. They are the oracles
# for dqn._score_candidates and dqn._fit_batch, which score and fit from
# one shared forward.


def state_from_mu(mu, g, t, k):
    """mu summed over the k-hop neighborhood of t in g, row by sorted id."""
    return mu[sorted(k_hop_neighborhood(g, t, k).tolist())].sum(axis=0)


def state_repr(qnet, g, t):
    """Sum of GCN embeddings over the k-hop neighborhood of t in g."""
    mu, _ = _mu_forward(qnet, g)
    return state_from_mu(mu, g, t, qnet.k)


def action_repr(qnet, g, v, t, sign):
    if v == t:
        raise DataError("action endpoint equals the target")
    mu, _ = _mu_forward(qnet, g)
    return _action_from_mu(mu, v, t, sign)


def score_candidates_loop(qnet, mu, g, t, cands):
    """Q-values of a list of EdgeEdit candidates, one row filled per edit:
    the oracle for dqn._score_candidates, which fills the rows from an
    endpoint array with array ops."""
    h = mu.shape[1]
    mu_s = state_from_mu(mu, g, t, qnet.k)
    rows = np.empty((len(cands), 3 * h))
    rows[:, :h] = mu_s
    for i, e in enumerate(cands):
        v = e.v if e.u == t else e.u
        sgn = 1.0 if e.sign == ADD else -1.0
        rows[i, h:2 * h] = sgn * mu[v]
        rows[i, 2 * h:] = sgn * mu[t]
    return sigmoid(rows @ qnet.w_merge) @ qnet.w_out


def q_forward(qnet, state_vec, action_vec):
    cat = np.concatenate([state_vec, action_vec])
    if cat.shape[0] != qnet.w_merge.shape[0]:
        raise DataError(
            f"state+action dim {cat.shape[0]} != merge input {qnet.w_merge.shape[0]}")
    hid = sigmoid(cat @ qnet.w_merge)
    return float(hid @ qnet.w_out)


def finite_diff_check(loss_fn, param: np.ndarray, analytic_grad: np.ndarray,
                      h: float = 1e-5) -> float:
    """Max relative error between `analytic_grad` and central differences.

    loss_fn maps a parameter array (same shape as `param`) to a scalar.
    Relative error per coordinate is |a - n| / max(1, |a| + |n|).
    """
    if param.shape != analytic_grad.shape:
        raise ValueError("param / gradient shape mismatch")
    work = np.array(param, dtype=np.float64)
    worst = 0.0
    it = np.nditer(work, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = work[idx]
        work[idx] = orig + h
        hi = float(loss_fn(work))
        work[idx] = orig - h
        lo = float(loss_fn(work))
        work[idx] = orig
        numeric = (hi - lo) / (2.0 * h)
        a = float(analytic_grad[idx])
        err = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst


def inference_timer(qnet, g, targets, budgets, repeats=3, accessible=None):
    """Best-of-`repeats` wall-clock seconds of infer_attack per
    (target, budget)."""
    rows = []
    for t in targets:
        for b in budgets:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                infer_attack(qnet, g, int(t), int(b), accessible)
                best = min(best, time.perf_counter() - start)
            rows.append({"target": int(t), "budget": int(b), "seconds": best})
    return rows


def save_set_cover(path, n, sets, b):
    """Write a set-cover instance in the format io.load_set_cover reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(sets)} {b}\n")
        for s in sets:
            fh.write(" ".join(str(x) for x in sorted(s)) + "\n")


@pytest.fixture
def path4():
    # 0 - 1 - 2 - 3
    return make_graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def triangle_plus():
    # triangle 0-1-2 with pendant 3 on node 2, isolated 4
    return make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)])


@pytest.fixture
def small_sbm():
    from nbrattack.sbm import generate_sbm
    return generate_sbm([6, 6], 0.7, 0.1, seed=42)
