"""Channel model and downlink resource allocation.

Channel gain = log-distance path loss times a Rician small-scale fading
power. Rates follow the Shannon capacity of the per-device FDMA slice, and
bandwidth/power budgets are enforced by construction via proportional shares
of discrete levels. Gains, rates, delays and budgets are computed for all
devices of a round in one call; ``step_mobility`` is the one-device reference
that ``federation.World.advance_channel`` reproduces over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simcore import DeviceState

__all__ = [
    "ChannelParams",
    "MobilityModel",
    "step_mobility",
    "advance_mobility",
    "channel_gain",
    "rician_fading_power",
    "shannon_rate",
    "transmission_delay",
    "allocate_budgets",
]

# -174 dBm/Hz thermal noise floor in W/Hz
DBM_PER_HZ_DEFAULT = -174.0


def dbm_per_hz_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    noise_psd: float = dbm_per_hz_to_watts(DBM_PER_HZ_DEFAULT)  # W/Hz
    bandwidth_budget: float = 20e9   # Hz, server-wide downlink budget
    power_budget: float = 15.0       # W
    pathloss_exponent: float = 3.5
    reference_distance: float = 1.0  # m
    reference_loss_db: float = 40.0
    rician_k: float = 3.0

    def __post_init__(self):
        if self.noise_psd <= 0:
            raise ValueError("noise PSD must be positive")
        if self.bandwidth_budget <= 0 or self.power_budget <= 0:
            raise ValueError("budgets must be positive")
        if not 2.0 <= self.pathloss_exponent <= 6.0:
            raise ValueError("pathloss exponent must lie in [2, 6]")
        if self.rician_k < 0:
            raise ValueError("rician K must be non-negative")


@dataclass(frozen=True)
class MobilityModel:
    """Random-waypoint motion inside a disc centred on the server."""

    area_radius: float = 150.0
    speed_range: tuple[float, float] = (1.0, 10.0)
    waypoint_pause: int = 2


def _random_point_in_disc(radius: float, rng: np.random.Generator) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(theta), r * math.sin(theta)])


def step_mobility(state: DeviceState, model: MobilityModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Advance one round of random-waypoint motion and return the new
    position. Waypoint bookkeeping is kept on the device state; displacement
    per round never exceeds the sampled leg speed."""
    if state.pause_left > 0:
        state.pause_left -= 1
        return state.position
    if state.waypoint is None:
        state.waypoint = _random_point_in_disc(model.area_radius, rng)
        state.leg_speed = rng.uniform(model.speed_range[0], model.speed_range[1])
    delta = state.waypoint - state.position
    dist = float(np.linalg.norm(delta))
    if dist <= state.leg_speed:
        new_pos = state.waypoint
        state.waypoint = None
        state.pause_left = model.waypoint_pause
    else:
        new_pos = state.position + delta * (state.leg_speed / dist)
    state.position = new_pos
    return new_pos


def advance_mobility(position: np.ndarray, waypoint: np.ndarray,
                     pause_left: np.ndarray, leg_speed: np.ndarray,
                     model: MobilityModel, rng: np.random.Generator) -> None:
    """Array twin of ``step_mobility`` over all devices, in place.

    Rows of ``waypoint`` are NaN between legs. Draws the same numbers in the
    same order as calling ``step_mobility`` on each device in index order
    with one stream, and gives bit-identical positions.
    """
    paused = pause_left > 0
    pause_left -= paused
    need = np.isnan(waypoint[:, 0]) & ~paused
    m = np.count_nonzero(need)
    if m:
        u = rng.uniform(size=(m, 3))
        r = model.area_radius * np.sqrt(u[:, 0])
        theta = 2.0 * math.pi * u[:, 1]
        waypoint[need] = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        lo, hi = model.speed_range
        leg_speed[need] = lo + (hi - lo) * u[:, 2]
    # paused devices have no waypoint, so their rows are NaN and neither
    # comparison below selects them; updates go through ``where`` masks, so
    # rows outside a mask are never divided or moved
    delta = waypoint - position
    dist = np.sqrt(np.vecdot(delta, delta))  # bit-equal to np.linalg.norm
    go = dist > leg_speed
    stop = dist <= leg_speed
    scale = np.divide(leg_speed, dist, out=np.zeros_like(dist), where=go)
    np.add(position, delta * scale[:, None], out=position, where=go[:, None])
    np.copyto(position, waypoint, where=stop[:, None])
    np.copyto(waypoint, np.nan, where=stop[:, None])
    np.copyto(pause_left, model.waypoint_pause, where=stop)


def rician_fading_power(k: float, rng: np.random.Generator, shape=()):
    """Squared magnitude of unit-mean-power Rician fading coefficients, one
    per entry of ``shape``; draws the real and imaginary normals of each
    entry in turn.

    K -> inf degenerates to the deterministic line-of-sight value 1.
    """
    if math.isinf(k):
        return np.ones(shape)
    los = math.sqrt(k / (k + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    h = sigma * rng.standard_normal(size=(*shape, 2))
    h[..., 0] += los
    return np.vecdot(h, h)


def channel_gain(distance, params: ChannelParams, rng: np.random.Generator):
    """Linear channel gain: path loss at ``distance`` times Rician fading,
    elementwise over an array of distances."""
    d = np.maximum(distance, params.reference_distance)
    loss_db = params.reference_loss_db + 10.0 * params.pathloss_exponent * np.log10(
        d / params.reference_distance)
    return 10.0 ** (-loss_db / 10.0) * rician_fading_power(params.rician_k, rng,
                                                           np.shape(d))


def shannon_rate(bandwidth, power, gain, noise_psd: float):
    """Achievable downlink rate in bit/s of each FDMA slice."""
    if (np.asarray(bandwidth) <= 0).any():
        raise ValueError("bandwidth must be positive")
    if (np.asarray(power) < 0).any() or (np.asarray(gain) < 0).any():
        raise ValueError("power and gain must be non-negative")
    snr = gain * power / (bandwidth * noise_psd)
    return bandwidth * np.log2(1.0 + snr)


def transmission_delay(changed, emulator_bytes, rate):
    """Seconds to push an emulator downlink; zero where it did not change."""
    rate = np.where(changed, rate, np.inf)
    if (rate <= 0).any():
        raise ValueError("cannot transmit a changed emulator at zero rate")
    return 8.0 * emulator_bytes / rate


def allocate_budgets(levels_bw, levels_pw, selection, params: ChannelParams):
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
    budgets = np.array([[params.bandwidth_budget], [params.power_budget]])
    ulp = np.spacing(budgets)
    shares = np.rint(budgets / ulp * levels
                     / levels.sum(axis=1, keepdims=True)) * ulp
    last = np.argmax(selection)
    shares[:, last] = 0.0
    shares[:, last] = budgets[:, 0] - shares.sum(axis=1)
    return shares[0], shares[1]
