"""Minimal feed-forward networks with hand-written backprop and ADAM.

Only the fixed topology used by the controllers is supported: tanh hidden
layers, linear output. Networks are value objects; forward works on single
vectors or batches (rows). Also provides the categorical distribution; the
selection branch's Plackett-Luce (Gumbel-top-k) sampler lives with the
agents.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mlp",
    "AdamState",
    "forward",
    "forward_cached",
    "backward",
    "adam_step",
    "log_softmax",
    "categorical_sample",
    "categorical_log_prob",
]


@dataclass
class Mlp:
    layer_sizes: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @staticmethod
    def init(layer_sizes, rng: np.random.Generator, scale: float = 1.0) -> "Mlp":
        """Xavier-style initialisation; final layer scaled down so initial
        policies are near-uniform."""
        weights, biases = [], []
        last = len(layer_sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            std = np.sqrt(2.0 / (fan_in + fan_out))
            if i == last:
                std *= 0.01 * scale
            weights.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return Mlp(list(layer_sizes), weights, biases)

    def clone(self) -> "Mlp":
        return copy.deepcopy(self)

    def parameters(self):
        """Flat list of parameter arrays, weights interleaved with biases."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.parameters())


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a vector or a batch of row vectors."""
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != net.layer_sizes[0]:
        raise ValueError(
            f"input size {h.shape[-1]} does not match net input {net.layer_sizes[0]}")
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < n_layers - 1:
            h = np.tanh(h)
    return h


def forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass that also returns the activations needed by backward."""
    h = np.asarray(x, dtype=float)
    activations = [h]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < n_layers - 1:
            h = np.tanh(h)
        activations.append(h)
    return h, activations


def backward(net: Mlp, x: np.ndarray, grad_out: np.ndarray,
             activations=None):
    """Exact gradients of sum(grad_out * output) w.r.t. every parameter.

    Returns a list matching ``net.parameters()`` order. Batched inputs sum
    gradients over the batch.
    """
    if activations is None:
        _, activations = forward_cached(net, x)
    single = activations[0].ndim == 1
    acts = [a[None, :] if single else a for a in activations]
    g = np.asarray(grad_out, dtype=float)
    if single:
        g = g[None, :]
    n_layers = len(net.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            # activations[i+1] stores tanh output; derivative is 1 - tanh^2
            g = g * (1.0 - acts[i + 1] ** 2)
        grads_w[i] = acts[i].T @ g
        grads_b[i] = g.sum(axis=0)
        if i > 0:
            g = g @ net.weights[i].T
    out = []
    for gw, gb in zip(grads_w, grads_b):
        out.append(gw)
        out.append(gb)
    return out


@dataclass
class AdamState:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @staticmethod
    def for_params(params, lr: float = 3e-4) -> "AdamState":
        return AdamState(lr=lr,
                         m=[np.zeros_like(p) for p in params],
                         v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState):
    """Standard bias-corrected ADAM update, applied in place."""
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
    return params


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def categorical_sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Sample an index from softmax(logits); returns (index, log prob)."""
    logp = log_softmax(logits)
    p = np.exp(logp)
    idx = int(rng.choice(len(p), p=p / p.sum()))
    return idx, float(logp[idx])


def categorical_log_prob(logits: np.ndarray, index: int) -> float:
    return float(log_softmax(logits)[index])
