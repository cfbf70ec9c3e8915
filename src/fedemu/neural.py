"""Minimal feed-forward networks with hand-written backprop and ADAM.

Only the fixed topology used by the controllers is supported: tanh hidden
layers, linear output. Networks are value objects; forward works on single
vectors or batches (rows).

A weight-shared per-device head sees, for each of K selected devices, the
same chained state plus a few features of that device. Its input may be
passed factored: a shared (M, d) matrix ``x`` and (M*K, e) per-row features
``feats``, where row s*K + j stands for ``[x[s] | feats[s*K + j]]``. The
first layer then computes ``repeat(x @ W1[:d], K) + feats @ W1[d:]`` and its
weight gradient ``[x.T @ g.reshape(M, K, H).sum(1) ; feats.T @ g]``, so the
(M*K, d + e) concatenation is never built.

Also provides ``log_softmax``, the categorical log-probabilities of the
per-device heads; the selection branch's Plackett-Luce (Gumbel-top-k) sampler
lives with the agents.
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


def _first_layer(net: Mlp, x: np.ndarray, feats) -> np.ndarray:
    """Pre-activation of the first layer, for a plain or a factored input."""
    w, b = net.weights[0], net.biases[0]
    if feats is None:
        if x.shape[-1] != net.layer_sizes[0]:
            raise ValueError(f"input size {x.shape[-1]} does not match net "
                             f"input {net.layer_sizes[0]}")
        return x @ w + b
    if x.ndim != 2 or feats.ndim != 2:
        raise ValueError("a factored input needs a 2-D shared matrix and "
                         "2-D per-row features")
    (m, d), (rows, e) = x.shape, feats.shape
    if d + e != net.layer_sizes[0]:
        raise ValueError(f"input size {d} + {e} does not match net input "
                         f"{net.layer_sizes[0]}")
    if m == 0 or rows % m:
        raise ValueError(f"{rows} feature rows do not split over {m} samples")
    h = (feats @ w[d:]).reshape(m, rows // m, -1)
    h += (x @ w[:d])[:, None, :]
    h = h.reshape(rows, -1)
    h += b
    return h


def forward(net: Mlp, x: np.ndarray, feats=None) -> np.ndarray:
    """Forward pass; accepts a vector or a batch of row vectors, or a
    factored input (see the module docstring)."""
    h = np.asarray(x, dtype=float)
    if feats is not None:
        feats = np.asarray(feats, dtype=float)
    h = _first_layer(net, h, feats)
    for w, b in zip(net.weights[1:], net.biases[1:]):
        h = np.tanh(h) @ w + b
    return h


def forward_cached(net: Mlp, x: np.ndarray, feats=None):
    """Forward pass that also returns the activations needed by backward.

    ``activations[0]`` is the input: the array ``x``, or the pair
    ``(x, feats)`` for a factored input.
    """
    h = np.asarray(x, dtype=float)
    if feats is not None:
        feats = np.asarray(feats, dtype=float)
    activations = [h if feats is None else (h, feats)]
    h = _first_layer(net, h, feats)
    for w, b in zip(net.weights[1:], net.biases[1:]):
        h = np.tanh(h)
        activations.append(h)
        h = h @ w + b
    activations.append(h)
    return h, activations


def backward(net: Mlp, x: np.ndarray, grad_out: np.ndarray, activations=None):
    """Exact gradients of sum(grad_out * output) w.r.t. every parameter.

    Returns a list matching ``net.parameters()`` order. Batched inputs sum
    gradients over the batch. When ``activations`` is given, the input is
    read from ``activations[0]`` and ``x`` is not used; a factored input is
    given this way, through the activations of ``forward_cached``.
    """
    if activations is None:
        _, activations = forward_cached(net, x)
    x, feats = (activations[0] if isinstance(activations[0], tuple)
                else (activations[0], None))
    single = x.ndim == 1
    acts = [x] + activations[1:]
    if single:
        acts = [a[None, :] for a in acts]
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
        if i == 0 and feats is not None:
            # shared rows get the summed gradient of their K feature rows
            m = len(x)
            grads_w[0] = np.concatenate([
                x.T @ g.reshape(m, -1, g.shape[1]).sum(axis=1), feats.T @ g])
        else:
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
        # two temporaries per array; same operations, in the same order, as
        # p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
        t = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += t
        np.multiply(g, 1.0 - state.beta2, out=t)
        t *= g
        v *= state.beta2
        v += t
        den = np.divide(v, b2c)
        np.sqrt(den, out=den)
        den += state.eps
        np.divide(m, b1c, out=t)
        t *= state.lr
        t /= den
        p -= t
    return params


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

