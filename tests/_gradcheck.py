"""Central-difference gradient oracle shared by unit and acceptance tests."""

import numpy as np

from fedemu.neural import backward, forward


def grads_of(net, upstream, activations):
    """``backward``'s gradients for the activations of one ``forward``,
    written into fresh arrays."""
    return backward(net, upstream, activations,
                    [np.empty_like(p) for p in net.parameters()])


def analytic_grads(net, x, upstream, feats=None):
    return grads_of(net, upstream, forward(net, x, feats)[1])


def finite_difference_grads(net, x, upstream, h=1e-5, feats=None):
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = float((forward(net, x, feats)[0] * upstream).sum())
            p[idx] = orig - h
            down = float((forward(net, x, feats)[0] * upstream).sum())
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_relative_error(net, x, upstream, feats=None):
    """Worst-case relative disagreement between analytic and numeric
    gradients; denominators are floored so finite-difference noise on
    near-zero entries reads as a small absolute error instead of blowing up.
    ``feats`` makes ``x`` the shared part of a factored input."""
    analytic = analytic_grads(net, x, upstream, feats)
    numeric = finite_difference_grads(net, x, upstream, feats=feats)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-2)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
