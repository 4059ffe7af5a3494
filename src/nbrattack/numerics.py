"""Small float64 numeric kernel: activations, the stacked-GCN pass, Adam,
RNG helpers and a central-difference gradient checker.

The Q-network, the GCN victim and the GCN embedding backend all run one
stacked GCN (Kipf & Welling, ICLR 2017), so its forward and backward
live here once, as ``gcn_forward``/``gcn_backward``; each model keeps a
thin adapter for its own parameter layout and checks.

Everything here is pure numpy and deterministic given a Generator.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import TrainingError

LOG_FLOOR = 1e-12


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def stage_seed(root_seed: int, label: str) -> int:
    """Derive a per-stage seed from a root seed and a stage label.

    Uses sha256 so that stages are decorrelated and insertion of a new
    stage never shifts the seeds of existing ones.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sigmoid(x):
    return expit(np.asarray(x, dtype=np.float64))


def neg_log_sigmoid(x):
    """-log(sigmoid(x)) with the argument of the log floored at 1e-12."""
    return -np.log(np.maximum(sigmoid(x), LOG_FLOOR))


def relu(x):
    return np.maximum(x, 0.0)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"bad fan dims ({fan_in}, {fan_out})")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def gcn_forward(s, x, weights, biases=None):
    """Stacked GCN ``H_i = act(S (H_{i-1} W_i) + b_i)``, ReLU between
    layers and a linear last layer; returns (H_last, cache).

    ``s`` is the symmetric (sparse) propagation matrix. ``x=None`` stands
    for one-hot input (H_0 = I), so the first product ``x @ W`` is just
    ``W``. ``biases=None`` means no bias terms.
    """
    h = x
    cache = []
    last = len(weights) - 1
    for i, w in enumerate(weights):
        lin = s @ (w if h is None else h @ w)
        if biases is not None:
            lin = lin + biases[i]
        cache.append((h, lin))
        h = lin if i == last else relu(lin)
    return h, cache


def gcn_backward(s, weights, cache, d_out):
    """Gradients of ``gcn_forward`` given d(loss)/d(H_last).

    Returns (weight grads, bias grads), one array per layer each; a
    caller without biases ignores the second list.

    ``S^T dlin`` is computed as ``S @ dlin``: S is symmetric, and a CSR
    product adds each output row's terms in the same ascending-column
    order as the product with its CSC transpose, so the result is
    bit-identical without building the transpose on every call.
    """
    dws, dbs = [None] * len(weights), [None] * len(weights)
    dh = d_out
    last = len(weights) - 1
    for i in reversed(range(len(weights))):
        h_prev, lin = cache[i]
        dlin = dh if i == last else dh * (lin > 0)
        back = s @ dlin
        dbs[i] = dlin.sum(axis=0)
        dws[i] = back if h_prev is None else h_prev.T @ back
        if i > 0:
            dh = back @ weights[i].T
    return dws, dbs


def softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


@dataclass
class AdamState:
    """Per-parameter Adam moments; step counts the updates applied so far."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init_like(cls, param: np.ndarray, lr: float = 0.01) -> "AdamState":
        return cls(m=np.zeros_like(param, dtype=np.float64),
                   v=np.zeros_like(param, dtype=np.float64), lr=lr)


def adam_update(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One Adam step. Mutates `state`, returns the new parameter array."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(
            f"adam shape mismatch: param {param.shape} grad {grad.shape} m {state.m.shape}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.sum(~np.isfinite(grad)))
        raise TrainingError(
            f"non-finite gradient ({bad}/{grad.size} entries) at step {state.step + 1}")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


class Adam:
    """Keyed Adam over a dict of parameter arrays."""

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self.states: dict[str, AdamState] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        out = {}
        for name, p in params.items():
            if name not in grads:
                raise ValueError(f"missing gradient for parameter {name!r}")
            if name not in self.states:
                self.states[name] = AdamState.init_like(p, lr=self.lr)
            out[name] = adam_update(p, grads[name], self.states[name])
        return out
