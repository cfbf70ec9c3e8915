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
weight gradient ``[x.T @ (1_K @ g.reshape(M, K, H)) ; feats.T @ g]``, so the
(M*K, d + e) concatenation is never built. ``1_K`` is a vector of K ones:
numpy sums a short axis (a sample's K rows, a bias gradient's batch axis, a
row of logits) one row at a time, so such sums are BLAS matmuls here.

A training loop passes a ``Scratch`` to all three calls; the hidden
activations, the output, the backpropagated row gradients and Adam's
temporary are then written into its work arrays instead of fresh ones. A
scratch of another dtype than the net's is refused. A
scratch array stays valid until the same scratch is next written under the
same name: the output and activations of a ``forward`` until the next
``forward`` with that scratch, the row gradients only within one
``backward``. So two heads whose activations must both live until their
backward passes need two scratches, while passes that run one after another
can share one. Callers that pass no scratch get fresh arrays.

Learner arrays are float32: weights, biases, Adam moments and gradients,
scratch work arrays and the inputs ``forward`` casts to its net's dtype.
The environment, the reward and GAE stay float64. ``Mlp.init``'s ``dtype``
exists so that tests can build float64 nets as oracles.

Also provides ``log_softmax``, the categorical log-probabilities of the
per-device heads; the selection branch's Plackett-Luce (Gumbel-top-k) sampler
lives with the agents.
"""

from __future__ import annotations

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
    def init(layer_sizes, rng: np.random.Generator, scale: float = 1.0,
             dtype=np.float32) -> "Mlp":
        """Xavier-style initialisation; final layer scaled down so initial
        policies are near-uniform. Drawn in float64 for any ``dtype``."""
        weights, biases = [], []
        last = len(layer_sizes) - 2
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            std = np.sqrt(2.0 / (fan_in + fan_out))
            if i == last:
                std *= 0.01 * scale
            weights.append(rng.normal(0.0, std, size=(fan_in, fan_out))
                           .astype(dtype))
            biases.append(np.zeros(fan_out, dtype))
        return Mlp(list(layer_sizes), weights, biases)

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

    There is one array of the scratch's dtype, the nets', per (name, width),
    sized by the most rows asked for so far; a call with fewer rows gets a
    row-prefix view of it. What a call returns through a scratch is valid
    until the same scratch is next written (see the module docstring).
    """

    def __init__(self, dtype=np.float32):
        self.dtype, self._arrays = np.dtype(dtype), {}
        self._ones = np.ones(0, dtype)

    @classmethod
    def of(cls, dtype, scratch: "Scratch | None" = None) -> "Scratch":
        """``scratch``, or a fresh one if it is None, for a net of ``dtype``.
        A scratch of another dtype is refused: numpy would round a float64
        net's products into its float32 work arrays without a word."""
        if scratch is None:
            return cls(dtype)
        if scratch.dtype != dtype:
            raise ValueError(f"a {scratch.dtype} scratch cannot serve a "
                             f"{np.dtype(dtype)} net")
        return scratch

    def take(self, name, rows: int, cols: int) -> np.ndarray:
        arr = self._arrays.get((name, cols))
        if arr is None or len(arr) < rows:
            arr = self._arrays[name, cols] = np.empty((rows, cols), self.dtype)
        return arr[:rows]

    def ones(self, n: int) -> np.ndarray:
        """A read-only vector of ``n`` ones, for sums as matmuls."""
        if len(self._ones) < n:
            self._ones = np.ones(n, self.dtype)
            self._ones.flags.writeable = False
        return self._ones[:n]


def _first_layer(net: Mlp, x: np.ndarray, feats, scratch) -> np.ndarray:
    """Pre-activation of the first layer on a factored input."""
    w, b = net.weights[0], net.biases[0]
    if x.ndim != 2 or feats.ndim != 2:
        raise ValueError("a factored input needs a 2-D shared matrix and "
                         "2-D per-row features")
    (m, d), (rows, e) = x.shape, feats.shape
    if d + e != net.layer_sizes[0]:
        raise ValueError(f"input size {d} + {e} does not match net input "
                         f"{net.layer_sizes[0]}")
    if m == 0 or rows % m:
        raise ValueError(f"{rows} feature rows do not split over {m} samples")
    if scratch is None:
        h, shared = feats @ w[d:], x @ w[:d]
    else:
        h = np.matmul(feats, w[d:], out=scratch.take(("z", 0), rows, len(b)))
        shared = np.matmul(x, w[:d], out=scratch.take("shared", m, len(b)))
    if m == 1:   # one shared row broadcasts over every feature row
        h += shared
    else:
        per_sample = h.reshape(m, rows // m, -1)
        per_sample += shared[:, None, :]
    h += b
    return h


def forward(net: Mlp, x: np.ndarray, feats=None,
            scratch: Scratch | None = None):
    """Forward pass over a batch of rows, or a factored input (see the module
    docstring); returns ``(output, activations)``, every layer's input as
    ``backward`` reads it: ``activations[0]`` is ``x``, or ``(x, feats)``
    for a factored input. ``x`` and ``feats`` are arrays; one of another
    dtype than the net's is cast. tanh is applied in place, so a hidden
    pre-activation array becomes that layer's activation. With a ``scratch``
    the output and the hidden activations are its work arrays."""
    dtype = net.weights[0].dtype
    if scratch is not None:
        Scratch.of(dtype, scratch)
    if x.dtype != dtype:
        x = x.astype(dtype)
    if feats is None:
        if x.shape[-1] != net.layer_sizes[0]:
            raise ValueError(f"input size {x.shape[-1]} does not match net "
                             f"input {net.layer_sizes[0]}")
        activations, h, first = [x], x, 0
    else:
        if feats.dtype != dtype:
            feats = feats.astype(dtype)
        activations, first = [(x, feats)], 1
        h = _first_layer(net, x, feats, scratch)
    for i in range(first, len(net.weights)):
        if i:
            np.tanh(h, out=h)
            activations.append(h)
        w = net.weights[i]
        h = (h @ w if scratch is None else np.matmul(
            h, w, out=scratch.take(("z", i), len(h), w.shape[1])))
        h += net.biases[i]
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
    scratch = Scratch.of(net.weights[0].dtype, scratch)
    g = np.asarray(grad_out, scratch.dtype)   # float64 would upcast it all
    rows = len(g)
    ones = scratch.ones(rows)
    n_layers = len(net.weights)
    for i in range(n_layers - 1, -1, -1):
        grad_w, grad_b = out[2 * i], out[2 * i + 1]
        if i < n_layers - 1:
            # activations[i+1] stores tanh output; derivative is 1 - tanh^2
            d = scratch.take("d", rows, g.shape[1])
            np.square(activations[i + 1], out=d)
            np.subtract(1.0, d, out=d)
            g = np.multiply(g, d, out=d)
        if i == 0 and feats is not None:
            # shared rows get the summed gradient of their K feature rows
            m, d_shared = x.shape
            per_sample = np.matmul(ones[:rows // m],
                                   g.reshape(m, -1, g.shape[1]),
                                   out=scratch.take("gsum", m, g.shape[1]))
            np.matmul(x.T, per_sample, out=grad_w[:d_shared])
            np.matmul(feats.T, g, out=grad_w[d_shared:])
        else:
            np.matmul(activations[i].T, g, out=grad_w)
        np.matmul(ones, g, out=grad_b)
        if i > 0:
            w = net.weights[i]
            g = np.matmul(g, w.T, out=scratch.take("g", rows, w.shape[0]))
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
        dtype = self.params[0].dtype
        self._m, self._v, self._g = (np.zeros(n, dtype) for _ in range(3))
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
    ``state.grads``, in place: with ``m = beta1 m + (1 - beta1) g``,
    ``v = beta2 v + (1 - beta2) g g`` and ``bNc = 1 - betaN ** step``,
    ``p -= m * (lr / b1c) / (sqrt(v * (1 / b2c)) + eps)``, one division in
    13 passes over the buffers (7 for the moments, 6 for the step).

    The step leaves the ``grads`` buffer holding its denominator, not the
    gradient. Its one other temporary is a scratch work array when a
    ``scratch`` is given, so optimisers that step one after another can
    share it.
    """
    g, m, v = state._g, state._m, state._v
    scratch = Scratch.of(g.dtype, scratch)
    state.step += 1
    b1c = 1.0 - state.beta1 ** state.step
    b2c = 1.0 - state.beta2 ** state.step
    t = scratch.take("adam", len(g), 1)[:, 0]
    np.multiply(g, 1.0 - state.beta1, out=t)
    m *= state.beta1
    m += t
    np.multiply(g, 1.0 - state.beta2, out=t)
    t *= g
    v *= state.beta2
    v += t
    den = np.multiply(v, 1.0 / b2c, out=g)  # g is spent: holds the denominator
    np.sqrt(den, out=den)
    den += state.eps
    np.multiply(m, state.lr / b1c, out=t)
    t /= den
    for p, delta in zip(state.params, state.views(t), strict=True):
        p -= delta


def log_softmax(logits: np.ndarray, scratch: Scratch | None = None):
    """Log-probabilities over the last axis of a 1-D or 2-D ``logits``. The
    axis is short in a rows head, so the maxima are taken over a contiguous
    transposed copy and the exp-sums are a matmul with ones."""
    ones = Scratch.of(logits.dtype, scratch).ones(logits.shape[-1])
    z = logits - np.ascontiguousarray(logits.T).max(axis=0, keepdims=True).T
    z -= np.log(np.exp(z) @ ones[:, None])
    return z
