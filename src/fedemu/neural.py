"""Minimal feed-forward networks with hand-written backprop and ADAM.

Only the fixed topology used by the controllers is supported: tanh hidden
layers, linear output. Networks are value objects. ``forward`` returns the
output and the activations that ``backward`` takes; ``backward`` fills an
``AdamState``'s ``grads``, from which ``adam_step`` steps the parameters the
state was built over.

A weight-shared per-device head sees, for each of K selected devices, the
same chained state plus a few features of that device. Its input may be
passed factored: a shared (M, d) matrix ``x`` and (M*K, e) per-row features
``feats``, where row s*K + j stands for ``[x[s] | feats[s*K + j]]``. The
first layer then computes ``repeat(x @ W1[:d], K) + feats @ W1[d:]`` and its
weight gradient ``[x.T @ g.reshape(M, K, H).sum(1) ; feats.T @ g]``, so the
(M*K, d + e) concatenation is never built.

A training loop passes a ``Scratch`` to all three calls; the hidden
activations, the output, the backpropagated row gradients and Adam's
temporary are then written into its work arrays instead of fresh ones. A
scratch array stays valid until the same scratch is next written under the
same name: the output and activations of a ``forward`` until the next
``forward`` with that scratch, the row gradients only within one
``backward``. So two heads whose activations must both live until their
backward passes need two scratches, while passes that run one after another
can share one. Callers that pass no scratch get fresh arrays.

Also provides ``log_softmax``, the categorical log-probabilities of the
per-device heads; the selection branch's Plackett-Luce (Gumbel-top-k) sampler
lives with the agents.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mlp",
    "AdamState",
    "Scratch",
    "forward",
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


class Scratch:
    """Work arrays that ``forward``, ``backward`` and ``adam_step``
    reuse from call to call, so a training loop does not allocate (and fault
    in) the same memory for every minibatch.

    There is one array per (name, width), sized by the most rows asked for so
    far; a call with fewer rows gets a row-prefix view of it. What a call
    returns through a scratch is valid until the same scratch is next
    written (see the module docstring).
    """

    def __init__(self):
        self._arrays: dict = {}

    def take(self, name, rows: int, cols: int) -> np.ndarray:
        arr = self._arrays.get((name, cols))
        if arr is None or len(arr) < rows:
            arr = self._arrays[name, cols] = np.empty((rows, cols))
        return arr[:rows]


def _empty(scratch: Scratch | None, name, rows: int, cols: int) -> np.ndarray:
    """A fresh (rows, cols) array, or the scratch's work array for ``name``."""
    if scratch is None:
        return np.empty((rows, cols))
    return scratch.take(name, rows, cols)


def _matmul(a: np.ndarray, w: np.ndarray, scratch, name) -> np.ndarray:
    """``a @ w``, written into the scratch's work array for ``name`` when
    there is a scratch."""
    if scratch is None:
        return a @ w
    return np.matmul(a, w, out=scratch.take(name, len(a), w.shape[1]))


def _first_layer(net: Mlp, x: np.ndarray, feats, scratch) -> np.ndarray:
    """Pre-activation of the first layer, for a plain or a factored input."""
    w, b = net.weights[0], net.biases[0]
    if feats is None:
        if x.shape[-1] != net.layer_sizes[0]:
            raise ValueError(f"input size {x.shape[-1]} does not match net "
                             f"input {net.layer_sizes[0]}")
        h = _matmul(x, w, scratch, ("z", 0))
        h += b
        return h
    if x.ndim != 2 or feats.ndim != 2:
        raise ValueError("a factored input needs a 2-D shared matrix and "
                         "2-D per-row features")
    (m, d), (rows, e) = x.shape, feats.shape
    if d + e != net.layer_sizes[0]:
        raise ValueError(f"input size {d} + {e} does not match net input "
                         f"{net.layer_sizes[0]}")
    if m == 0 or rows % m:
        raise ValueError(f"{rows} feature rows do not split over {m} samples")
    h = _matmul(feats, w[d:], scratch, ("z", 0))
    shared = _matmul(x, w[:d], scratch, "shared")
    per_sample = h.reshape(m, rows // m, -1)
    per_sample += shared[:, None, :]
    h += b
    return h


def forward(net: Mlp, x: np.ndarray, feats=None,
            scratch: Scratch | None = None):
    """Forward pass over a batch of rows, or a factored input (see the module
    docstring); returns ``(output, activations)``, every layer's input as
    ``backward`` reads it: ``activations[0]`` is ``x``, or ``(x, feats)``
    for a factored input. tanh is applied in place, so a hidden
    pre-activation array becomes that layer's activation. With a ``scratch``
    the output and the hidden activations are its work arrays."""
    x = np.asarray(x, dtype=float)
    if feats is not None:
        feats = np.asarray(feats, dtype=float)
    activations = [x if feats is None else (x, feats)]
    h = _first_layer(net, x, feats, scratch)
    for i, (w, b) in enumerate(zip(net.weights[1:], net.biases[1:]), 1):
        np.tanh(h, out=h)
        activations.append(h)
        h = _matmul(h, w, scratch, ("z", i))
        h += b
    return h, activations


def backward(net: Mlp, grad_out: np.ndarray, activations: list, out: list,
             scratch: Scratch | None = None) -> list:
    """Exact gradients of sum(grad_out * output) w.r.t. every parameter,
    summed over the batch, for the ``activations`` of a ``forward``. Writes
    them into ``out`` (arrays of the parameters' shapes in ``parameters()``
    order, such as an optimiser's ``grads``) and returns it. With a
    ``scratch`` the backpropagated row gradients live in its work arrays."""
    x, feats = (activations[0] if isinstance(activations[0], tuple)
                else (activations[0], None))
    g = grad_out
    rows = len(g)
    n_layers = len(net.weights)
    for i in range(n_layers - 1, -1, -1):
        grad_w, grad_b = out[2 * i], out[2 * i + 1]
        if i < n_layers - 1:
            # activations[i+1] stores tanh output; derivative is 1 - tanh^2
            d = _empty(scratch, "d", rows, g.shape[1])
            np.square(activations[i + 1], out=d)
            np.subtract(1.0, d, out=d)
            g = np.multiply(g, d, out=d)
        if i == 0 and feats is not None:
            # shared rows get the summed gradient of their K feature rows
            m, d_shared = x.shape
            per_sample = np.sum(g.reshape(m, -1, g.shape[1]), axis=1,
                                out=_empty(scratch, "gsum", m, g.shape[1]))
            np.matmul(x.T, per_sample, out=grad_w[:d_shared])
            np.matmul(feats.T, g, out=grad_w[d_shared:])
        else:
            np.matmul(activations[i].T, g, out=grad_w)
        np.sum(g, axis=0, out=grad_b)
        if i > 0:
            w = net.weights[i]
            g = np.matmul(g, w.T, out=_empty(scratch, "g", rows, w.shape[0]))
    return out


class AdamState:
    """ADAM hyper-parameters and state for the parameter arrays ``params``,
    which ``adam_step`` updates in place.

    The first and second moments and the gradient are each one flat buffer
    laid out as the parameters end to end, in parameter order; ``_layout``
    records each array's (offset, size, shape) in it once. ``m``, ``v`` and
    ``grads`` are per-array views of the buffers, so one step is a few
    whole-buffer ufunc calls and ``backward`` can write gradients straight
    into ``grads``. A deepcopy of an agent steps the copy's own arrays.
    """

    def __init__(self, params, lr: float = 3e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step = 0
        self._layout, n = [], 0
        for p in self.params:
            self._layout.append((n, p.size, p.shape))
            n += p.size
        self._m, self._v, self._g = np.zeros(n), np.zeros(n), np.zeros(n)
        self._make_views()

    def _make_views(self):
        self.m, self.v, self.grads = (self.views(flat)
                                      for flat in (self._m, self._v, self._g))

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat array laid out like the moments."""
        return [flat[lo:lo + size].reshape(shape)
                for lo, size, shape in self._layout]

    # a copy (deepcopy, pickle) must rebuild the views over its own buffers
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if k not in ("m", "v", "grads")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._make_views()


def adam_step(state: AdamState, scratch: Scratch | None = None) -> None:
    """Standard bias-corrected ADAM update of ``state.params`` from
    ``state.grads``, applied in place.

    The step leaves the ``grads`` buffer holding its denominator, not the
    gradient. Its one other temporary is a scratch work array when a
    ``scratch`` is given, so optimisers that step one after another can
    share it.
    """
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    g, m, v = state._g, state._m, state._v
    t = _empty(scratch, "adam", len(g), 1)[:, 0]
    # same operations, in the same order, as
    # p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
    np.multiply(g, 1.0 - state.beta1, out=t)
    m *= state.beta1
    m += t
    np.multiply(g, 1.0 - state.beta2, out=t)
    t *= g
    v *= state.beta2
    v += t
    den = np.divide(v, b2c, out=g)  # g is spent: it holds the denominator
    np.sqrt(den, out=den)
    den += state.eps
    np.divide(m, b1c, out=t)
    t *= state.lr
    t /= den
    for p, delta in zip(state.params, state.views(t), strict=True):
        p -= delta


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

