"""Channel model and downlink resource allocation.

Channel gain = log-distance path loss times a Rician small-scale fading
power. Rates follow the Shannon capacity of the per-device FDMA slice, and
bandwidth/power budgets are enforced by construction via proportional shares
of discrete levels. The budget pair's terms (``budget_terms``) are fixed
for an episode, so ``federation.World`` makes them once and each round's
``allocate_budgets`` reads them. Rates, delays and budgets are computed for
all devices of a round in one call, gains for any array, into caller-owned
work arrays if given, and each checks its inputs with one NaN-ignoring
``np.fmin`` reduction per input; ``advance_mobility`` moves every device
through any number of rounds in one call, treating each (x, y) row as one
entry of a complex view so that 1-D masks copy whole rows, and is tested
against a one-device reference in ``tests/``. Channel and mobility settings
are read by name from ``env.EnvParams``, the one schema of the world.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .simcore import least

if TYPE_CHECKING:
    from .env import EnvParams

__all__ = [
    "advance_mobility",
    "channel_gain",
    "rician_fading_power",
    "shannon_rate",
    "transmission_delay",
    "allocate_budgets",
    "budget_terms",
]

def dbm_per_hz_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def advance_mobility(position: np.ndarray, waypoint: np.ndarray,
                     pause_left: np.ndarray, leg_speed: np.ndarray,
                     params: EnvParams, rng: np.random.Generator,
                     distances: np.ndarray) -> None:
    """Advance every device ``len(distances)`` rounds of random-waypoint
    motion, in place, writing each round's distances from the origin to its
    row of the (rounds, N) ``distances``.

    ``position`` and ``waypoint`` are C-contiguous (N, 2) float arrays, whose
    rows are NaN between legs. Each (x, y) row is one entry of a complex
    view, so a row is tested for NaN and copied whole under a 1-D mask; rows
    a mask leaves out keep their bits. Views, masks and work arrays are made
    once a call. Draws the same numbers in the same order as advancing each
    device in index order with one stream, round by round, and gives
    bit-identical positions (``tests/`` holds that one-device loop).
    """
    pos = position.view(np.complex128)[:, 0]
    way = waypoint.view(np.complex128)[:, 0]
    paused, need, go, stop = np.empty((4, len(pos)), bool)
    delta = np.empty_like(position)
    step, columns = delta.view(np.complex128)[:, 0], delta.T
    dist, scale = np.empty((2, len(pos)))
    x, y = position.T
    lo, hi = params.speed_range
    # paused devices have no waypoint, so their rows are NaN and neither
    # comparison below selects them; the step is computed for every row, but
    # only rows on ``go`` are copied, so a row off it may divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for row in distances:
            np.greater(pause_left, 0, out=paused)
            pause_left -= paused
            np.greater(np.isnan(way, out=need), paused, out=need)  # & ~paused
            new = need.nonzero()
            if m := len(new[0]):
                u = rng.uniform(size=(m, 3))
                r = params.area_radius * np.sqrt(u[:, 0])
                theta = 2.0 * math.pi * u[:, 1]
                drawn = np.empty(m, np.complex128)
                np.multiply(r, np.cos(theta), out=drawn.real)
                np.multiply(r, np.sin(theta), out=drawn.imag)
                way[new] = drawn
                leg_speed[new] = lo + (hi - lo) * u[:, 2]
            np.subtract(waypoint, position, out=delta)
            np.sqrt(np.vecdot(delta, delta, out=dist), out=dist)  # = norm
            np.greater(dist, leg_speed, out=go)
            np.less_equal(dist, leg_speed, out=stop)
            columns *= np.divide(leg_speed, dist, out=scale)
            delta += position
            np.copyto(pos, step, where=go)
            np.copyto(pos, way, where=stop)
            np.copyto(way, complex(math.nan, math.nan), where=stop)
            np.copyto(pause_left, params.waypoint_pause, where=stop)
            np.hypot(x, y, out=row)


def rician_fading_power(k: float, rng: np.random.Generator, shape=(),
                        out=None, normals=None):
    """Squared magnitude of unit-mean-power Rician fading coefficients, one
    per entry of ``shape``; draws the real and imaginary normals of each
    entry in turn, so one draw of shape (R, N) is R draws of shape (N,). The
    normals go to ``normals`` (shape + (2,)) and the powers to ``out`` if
    given, else to new arrays.

    K -> inf degenerates to the deterministic line-of-sight value 1.
    """
    if math.isinf(k):
        if out is None:
            return np.ones(shape)
        out.fill(1.0)
        return out
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    h = rng.standard_normal(size=(*shape, 2), out=normals)
    h *= sigma
    h[..., 0] += los
    return np.vecdot(h, h, out=out)


def channel_gain(distance, params: EnvParams, rng: np.random.Generator,
                 out=None, fading=None, normals=None):
    """Linear channel gain: path loss at ``distance`` times Rician fading,
    elementwise over an array of distances, in place on ``out`` (which may
    be ``distance``) if given, else on a new array (0-d for one distance).
    ``fading`` and ``normals`` are optional work arrays for
    ``rician_fading_power``'s ``out`` and ``normals``."""
    g = np.maximum(distance, params.reference_distance, out=out)[...]
    g /= params.reference_distance
    np.log10(g, out=g)
    g *= 10.0 * params.pathloss_exponent
    g += params.reference_loss_db
    g /= -10.0
    np.power(10.0, g, out=g)
    g *= rician_fading_power(params.rician_k, rng, g.shape, out=fading,
                             normals=normals)
    return g if g.ndim else g[()]


def shannon_rate(bandwidth, power, gain, noise_psd: float):
    """Achievable downlink rate in bit/s of each FDMA slice."""
    if least(bandwidth) <= 0:
        raise ValueError("bandwidth must be positive")
    if least(power) < 0 or least(gain) < 0:
        raise ValueError("power and gain must be non-negative")
    snr = gain * power / (bandwidth * noise_psd)
    return bandwidth * np.log2(1.0 + snr)


def transmission_delay(changed, emulator_bytes, rate):
    """Seconds to push an emulator downlink; zero where it did not change."""
    rate = np.where(changed, rate, np.inf)
    if least(rate) <= 0:
        raise ValueError("cannot transmit a changed emulator at zero rate")
    return 8.0 * emulator_bytes / rate


def budget_terms(bandwidth_budget: float, power_budget: float):
    """The terms ``allocate_budgets`` needs of a budget pair: the (2, 1)
    column of the bandwidth and power budgets, its ulp, and budget / ulp."""
    budgets = np.array([[bandwidth_budget], [power_budget]])
    ulp = np.spacing(budgets)
    return budgets, ulp, budgets / ulp


def allocate_budgets(levels_bw, levels_pw, selection, terms):
    """Turn the selected devices' discrete levels into absolute Hz/W.

    Levels, ``selection`` and the returned (bandwidth, power) arrays are
    aligned with each other; ``terms`` is ``budget_terms`` of the budget
    pair. A device gets budget * level / sum(levels), rounded to a multiple
    of the budget's ulp; the share of the highest selected index is the
    remainder. Every partial sum of such multiples is exact, so the shares
    sum to the budget exactly in any order. (Taking the remainder of
    unrounded shares misses by an ulp when it is a rounding tie.)
    """
    if len(selection) == 0:
        raise ValueError("cannot allocate budgets over an empty selection")
    levels = np.array([levels_bw, levels_pw], dtype=float)
    if least(levels) <= 0:
        raise ValueError("levels must be positive for selected devices")
    budgets, ulp, scale = terms
    shares = np.rint(scale * levels
                     / levels.sum(axis=1, keepdims=True)) * ulp
    last = np.asarray(selection).argmax()
    shares[:, last] = 0.0
    shares[:, last] = budgets[:, 0] - shares.sum(axis=1)
    return shares[0], shares[1]
