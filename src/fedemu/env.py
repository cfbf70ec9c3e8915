"""Reinforcement-learning environment around the federation world.

Observations hold per-device channel gain, remaining memory headroom and
exchange-count features plus the episode clock. Actions arrive as four
branch index groups (device selection, bandwidth levels, power levels,
retention grid indices) and rewards follow the weighted delay / perplexity /
exchange objective with large per-violation penalties for the memory and
exchange-cap constraints. Observations and penalties are array operations
over the world's per-device arrays.

``reset(seed)`` makes three named streams from the seed: population
(capacities, compute speeds, data sizes, start positions, then the bandwidth
budget), mobility and fading. No setting other than the seed and the
population, mobility and channel parameters moves positions or gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .federation import ActionBundle, FederationMode, World, run_round
from .simcore import (
    AdapterSpec,
    DeviceProfile,
    ModelSpec,
    PerplexitySurrogate,
    stream,
)
from .wireless import ChannelParams, MobilityModel, dbm_per_hz_to_watts

__all__ = ["EnvParams", "RewardBreakdown", "ActionDecodeError", "AdaptiveFedEnv"]


class ActionDecodeError(ValueError):
    """Raised when raw branch outputs cannot form a valid joint action."""


@dataclass(frozen=True)
class EnvParams:
    """Everything one environment instance needs; defaults are the desk-scale
    experiment configuration."""

    # population and episode length
    n_devices: int = 10
    select_k: int = 5
    rounds: int = 100

    # foundation model structure
    total_params: int = 1_208_000_000
    total_bytes: int = 2_630_000_000
    layer_count: int = 24
    adapter_top_layers: int = 2
    adapter_bottom_layers: int = 2

    # perplexity surrogate
    quad_a: float = 25.2
    quad_b: float = -43.1
    quad_c: float = 31.9
    lora_delta: float = -0.78
    p_init: float = 31.9
    convergence_rate: float = 0.08

    # device population
    compute_speed_range: tuple[float, float] = (3e11, 1.5e12)
    server_speed_factor: float = 10.0
    memory_capacity_range: tuple[float, float] = (2e9, 8e9)
    data_size_range: tuple[int, int] = (150, 350)
    server_data_fraction: float = 0.3
    local_epochs: int = 2

    # channel and mobility
    noise_dbm_per_hz: float = -174.0
    bandwidth_budget_range: tuple[float, float] = (7e9, 20e9)
    power_budget: float = 15.0
    pathloss_exponent: float = 3.5
    reference_distance: float = 1.0
    reference_loss_db: float = 40.0
    rician_k: float = 3.0
    area_radius: float = 55.0
    speed_range: tuple[float, float] = (1.0, 10.0)
    waypoint_pause: int = 2

    # action space
    retention_grid: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    levels: int = 4

    # reward shaping
    xi_p: float = 5.0
    xi_f: float = -10.0
    xi_s: float = 25.0
    kappa: float = -50.0
    mem_fraction_q: float = 2.0
    exchange_fraction_c: float = 5.0
    delay_floor: float = 1e-6

    mode: str = "fedpeat"

    @property
    def observation_dim(self) -> int:
        return 3 * self.n_devices + 1

    @property
    def exchange_cap(self) -> float:
        return self.rounds / self.exchange_fraction_c


@dataclass(frozen=True)
class RewardBreakdown:
    r_d: float
    r_p: float
    r_s: float
    penalty: float

    @property
    def total(self) -> float:
        return self.r_d + self.r_p + self.r_s + self.penalty


class AdaptiveFedEnv:
    """Single-threaded, deterministic-per-seed environment over T rounds."""

    def __init__(self, params: EnvParams | None = None):
        self.params = params or EnvParams()
        p = self.params
        self.mode = FederationMode(p.mode)
        self.model = ModelSpec(
            total_params=p.total_params,
            total_bytes=p.total_bytes,
            layer_count=p.layer_count,
            adapter_top_layers=p.adapter_top_layers,
            adapter_bottom_layers=p.adapter_bottom_layers,
        )
        self.surrogate = PerplexitySurrogate(
            a=p.quad_a, b=p.quad_b, c=p.quad_c, lora_delta=p.lora_delta,
            p_init=p.p_init, convergence_rate=p.convergence_rate)
        self.mobility = MobilityModel(
            area_radius=p.area_radius, speed_range=tuple(p.speed_range),
            waypoint_pause=p.waypoint_pause)
        self.world: World | None = None
        self.round_index = 0
        self.last_outcome = None

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        p = self.params
        n = p.n_devices
        population = stream(seed, 4, 1)
        capacity = population.uniform(*p.memory_capacity_range, size=n)
        speed = population.uniform(*p.compute_speed_range, size=n)
        data = population.integers(p.data_size_range[0],
                                   p.data_size_range[1] + 1, size=n)
        r = p.area_radius * np.sqrt(population.uniform(size=n))
        theta = population.uniform(0.0, 2.0 * math.pi, size=n)

        # server holds server_data_fraction of all data and always trains
        frac = p.server_data_fraction
        server = DeviceProfile(
            memory_capacity=16 * p.memory_capacity_range[1],
            compute_speed=p.server_speed_factor * p.compute_speed_range[1],
            data_size=max(1, round(frac / (1.0 - frac) * int(data.sum()))),
        )
        channel = ChannelParams(
            noise_psd=dbm_per_hz_to_watts(p.noise_dbm_per_hz),
            bandwidth_budget=population.uniform(*p.bandwidth_budget_range),
            power_budget=p.power_budget,
            pathloss_exponent=p.pathloss_exponent,
            reference_distance=p.reference_distance,
            reference_loss_db=p.reference_loss_db,
            rician_k=p.rician_k,
        )
        self.world = World(
            model=self.model,
            adapter_spec=AdapterSpec.for_model(self.model),
            surrogate=self.surrogate,
            channel=channel,
            mobility=self.mobility,
            profile=DeviceProfile(memory_capacity=capacity,
                                  compute_speed=speed, data_size=data),
            server=server,
            position=np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1),
            mobility_rng=stream(seed, 4, 2),
            fading_rng=stream(seed, 4, 3),
            epochs=p.local_epochs,
        )
        self.round_index = 0
        self.last_outcome = None
        return self._observation()

    def step(self, action: ActionBundle):
        if self.world is None:
            raise RuntimeError("reset() must be called before step()")
        self._validate(action)
        p = self.params
        outcome = run_round(self.world, action, self.mode, self.round_index)
        self.last_outcome = outcome

        max_q = max(outcome.max_q, p.delay_floor)
        r_d = -p.xi_f * math.log(max_q) / p.rounds
        r_p = -p.xi_p * float(outcome.perplexities.mean()) / p.rounds
        r_s = -p.xi_s * float(outcome.exchanges_this_round.mean()) / p.rounds

        sel = list(action.selection)
        capacity = self.world.profile.memory_capacity
        violations = int(
            np.count_nonzero(outcome.footprints[sel]
                             > capacity[sel] / p.mem_fraction_q)
            + np.count_nonzero(self.world.exchange_count > p.exchange_cap))
        penalty = p.kappa * violations if violations else 0.0

        reward = RewardBreakdown(r_d=r_d, r_p=r_p, r_s=r_s, penalty=penalty)

        self.world.advance_channel()
        self.round_index += 1
        done = self.round_index >= p.rounds
        obs = self._observation()

        return obs, reward, done

    # -- action decoding ----------------------------------------------

    def decode_branch_actions(self, selection_indices, bandwidth_indices,
                              power_indices, retention_indices) -> ActionBundle:
        """Map raw branch index groups onto a feasible joint action."""
        p = self.params
        sel = [int(i) for i in selection_indices]
        if len(sel) != p.select_k:
            raise ActionDecodeError(
                f"selection must pick {p.select_k} devices, got {len(sel)}")
        if len(set(sel)) != len(sel):
            raise ActionDecodeError("selection indices must be distinct")
        if any(i < 0 or i >= p.n_devices for i in sel):
            raise ActionDecodeError("selection index out of range")

        def levels(indices, what):
            idx = [int(i) for i in indices]
            if len(idx) != p.select_k:
                raise ActionDecodeError(f"{what} must supply one level per slot")
            if any(i < 0 or i >= p.levels for i in idx):
                raise ActionDecodeError(f"{what} index out of range")
            return tuple(i + 1 for i in idx)

        ret_idx = [int(i) for i in retention_indices]
        if len(ret_idx) != p.select_k:
            raise ActionDecodeError("retention must supply one index per slot")
        if any(i < 0 or i >= len(p.retention_grid) for i in ret_idx):
            raise ActionDecodeError("retention index out of range")

        return ActionBundle(
            selection=tuple(sel),
            bandwidth_levels=levels(bandwidth_indices, "bandwidth"),
            power_levels=levels(power_indices, "power"),
            retentions=tuple(p.retention_grid[i] for i in ret_idx),
        )

    # -- helpers -------------------------------------------------------

    def _validate(self, action: ActionBundle):
        p = self.params
        if len(action.selection) != p.select_k:
            raise ActionDecodeError("wrong selection size")
        if any(i < 0 or i >= p.n_devices for i in action.selection):
            raise ActionDecodeError("selection index out of range")
        for lv in (action.bandwidth_levels, action.power_levels):
            if any(not 1 <= v <= p.levels for v in lv):
                raise ActionDecodeError("level out of range")
        grid = set(p.retention_grid)
        if self.mode is FederationMode.FEDPEAT and any(
                r not in grid for r in action.retentions):
            raise ActionDecodeError("retention not on the configured grid")

    def _observation(self) -> np.ndarray:
        p = self.params
        world = self.world
        n = p.n_devices
        obs = np.empty(p.observation_dim)
        gain_db = 10.0 * np.log10(np.maximum(world.gains, 1e-30))
        obs[:n] = gain_db / 100.0
        # available capacity; a new emulator replaces the old one, so the
        # memory constraint depends on capacity, not current holdings
        obs[n:2 * n] = world.profile.memory_capacity / p.memory_capacity_range[1]
        obs[2 * n:3 * n] = world.exchange_count / p.rounds
        obs[3 * n] = self.round_index / p.rounds
        return obs
