"""Channel model and downlink resource allocation.

Channel gain = log-distance path loss times a Rician small-scale fading
power. Rates follow the Shannon capacity of the per-device FDMA slice, and
bandwidth/power budgets are enforced by construction via proportional shares
of discrete levels, the budgets passed as numbers. Rates, delays and budgets
are computed for all devices of a round in one call, gains for any array;
``advance_mobility`` moves every device of a round at once and is tested
against a one-device reference in ``tests/``. Channel and mobility settings
are read by name from ``env.EnvParams``, the one schema of the world.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .env import EnvParams

__all__ = [
    "advance_mobility",
    "channel_gain",
    "rician_fading_power",
    "shannon_rate",
    "transmission_delay",
    "allocate_budgets",
]

def dbm_per_hz_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def advance_mobility(position: np.ndarray, waypoint: np.ndarray,
                     pause_left: np.ndarray, leg_speed: np.ndarray,
                     params: EnvParams, rng: np.random.Generator) -> None:
    """Advance one round of random-waypoint motion of every device, in place.

    Rows of ``waypoint`` are NaN between legs. Draws the same numbers in the
    same order as advancing each device in index order with one stream, and
    gives bit-identical positions (``tests/`` holds that one-device loop).
    """
    paused = pause_left > 0
    pause_left -= paused
    need = np.isnan(waypoint[:, 0]) & ~paused
    m = np.count_nonzero(need)
    if m:
        u = rng.uniform(size=(m, 3))
        r = params.area_radius * np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
        waypoint[need, 0] = r * np.cos(theta)
        waypoint[need, 1] = r * np.sin(theta)
        lo, hi = params.speed_range
        leg_speed[need] = lo + (hi - lo) * u[:, 2]
    # paused devices have no waypoint, so their rows are NaN and neither
    # comparison below selects them; updates go through ``where`` masks, so
    # rows outside a mask are never divided or moved
    delta = waypoint - position
    dist = np.sqrt(np.vecdot(delta, delta))  # bit-equal to np.linalg.norm
    go = dist > leg_speed
    stop = dist <= leg_speed
    scale = np.divide(leg_speed, dist, out=np.zeros(len(dist)), where=go)
    np.add(position, delta * scale[:, None], out=position, where=go[:, None])
    np.copyto(position, waypoint, where=stop[:, None])
    np.copyto(waypoint, np.nan, where=stop[:, None])
    np.copyto(pause_left, params.waypoint_pause, where=stop)


def rician_fading_power(k: float, rng: np.random.Generator, shape=()):
    """Squared magnitude of unit-mean-power Rician fading coefficients, one
    per entry of ``shape``; draws the real and imaginary normals of each
    entry in turn, so one draw of shape (R, N) is R draws of shape (N,).

    K -> inf degenerates to the deterministic line-of-sight value 1.
    """
    if math.isinf(k):
        return np.ones(shape)
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    h = rng.standard_normal(size=(*shape, 2))
    h *= sigma
    h[..., 0] += los
    return np.vecdot(h, h)


def channel_gain(distance, params: EnvParams, rng: np.random.Generator,
                 out=None):
    """Linear channel gain: path loss at ``distance`` times Rician fading,
    elementwise over an array of distances, in place on ``out`` (which may
    be ``distance``) if given, else on a new array (0-d for one distance)."""
    g = np.maximum(distance, params.reference_distance, out=out)[...]
    g /= params.reference_distance
    np.log10(g, out=g)
    g *= 10.0 * params.pathloss_exponent
    g += params.reference_loss_db
    g /= -10.0
    np.power(10.0, g, out=g)
    g *= rician_fading_power(params.rician_k, rng, g.shape)
    return g if g.ndim else g[()]


def shannon_rate(bandwidth, power, gain, noise_psd: float):
    """Achievable downlink rate in bit/s of each FDMA slice."""
    nonpositive = np.asarray(bandwidth) <= 0
    if (nonpositive | (np.asarray(power) < 0) | (np.asarray(gain) < 0)).any():
        if nonpositive.any():
            raise ValueError("bandwidth must be positive")
        raise ValueError("power and gain must be non-negative")
    snr = gain * power / (bandwidth * noise_psd)
    return bandwidth * np.log2(1.0 + snr)


def transmission_delay(changed, emulator_bytes, rate):
    """Seconds to push an emulator downlink; zero where it did not change."""
    rate = np.where(changed, rate, np.inf)
    if (rate <= 0).any():
        raise ValueError("cannot transmit a changed emulator at zero rate")
    return 8.0 * emulator_bytes / rate


def allocate_budgets(levels_bw, levels_pw, selection, bandwidth_budget: float,
                     power_budget: float):
    """Turn the selected devices' discrete levels into absolute Hz/W.

    Levels, ``selection`` and the returned (bandwidth, power) arrays are
    aligned with each other. A device gets budget * level / sum(levels),
    rounded to a multiple of the budget's ulp; the share of the highest
    selected index is the remainder. Every partial sum of such multiples is
    exact, so the shares sum to the budget exactly in any order. (Taking the
    remainder of unrounded shares misses by an ulp when it is a rounding
    tie.)
    """
    if len(selection) == 0:
        raise ValueError("cannot allocate budgets over an empty selection")
    levels = np.array([levels_bw, levels_pw], dtype=float)
    if (levels <= 0).any():
        raise ValueError("levels must be positive for selected devices")
    budgets = np.array([[bandwidth_budget], [power_budget]])
    ulp = np.spacing(budgets)
    shares = np.rint(budgets / ulp * levels
                     / levels.sum(axis=1, keepdims=True)) * ulp
    last = np.asarray(selection).argmax()
    shares[:, last] = 0.0
    shares[:, last] = budgets[:, 0] - shares.sum(axis=1)
    return shares[0], shares[1]
