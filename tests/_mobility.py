"""Scalar random-waypoint reference that ``wireless.advance_mobility`` and
``federation.World.advance_channel`` must reproduce over arrays.

``World.advance_channel(out)`` takes ``len(out)`` mobility steps in one
call and writes one row of gains per step to ``out``: compare a world's
mobility arrays and streams with this reference after a call, and each step
with its row. An env draws each new channel whole at its reset this way,
so that world's arrays and streams are at the episode's end from round 0
on."""

import math
from dataclasses import dataclass

import numpy as np

from fedemu.env import EnvParams


@dataclass
class DeviceState:
    """Random-waypoint mobility state of one device, advanced in place by the
    scalar reference ``step_mobility``; ``waypoint`` is None between
    legs."""

    position: np.ndarray
    waypoint: np.ndarray | None = None
    pause_left: int = 0
    leg_speed: float = 0.0


def _random_point_in_disc(radius: float, rng: np.random.Generator) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([r * math.cos(theta), r * math.sin(theta)])


def step_mobility(state: DeviceState, params: EnvParams,
                  rng: np.random.Generator) -> np.ndarray:
    """Advance one round of random-waypoint motion and return the new
    position. Waypoint bookkeeping is kept on the device state; displacement
    per round never exceeds the sampled leg speed."""
    if state.pause_left > 0:
        state.pause_left -= 1
        return state.position
    if state.waypoint is None:
        state.waypoint = _random_point_in_disc(params.area_radius, rng)
        state.leg_speed = rng.uniform(params.speed_range[0], params.speed_range[1])
    delta = state.waypoint - state.position
    dist = float(np.linalg.norm(delta))
    if dist <= state.leg_speed:
        new_pos = state.waypoint
        state.waypoint = None
        state.pause_left = params.waypoint_pause
    else:
        new_pos = state.position + delta * (state.leg_speed / dist)
    state.position = new_pos
    return new_pos
