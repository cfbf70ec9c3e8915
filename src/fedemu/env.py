"""Reinforcement-learning environment around the federation world.

Observations hold per-device channel gain, remaining memory headroom and
exchange-count features plus the episode clock. Actions arrive as four
branch index groups (device selection, bandwidth levels, power levels,
retention grid indices); ``decode_branch_actions`` maps them to values and
``step`` checks the joint action against the action space, once, before the
world changes. Rewards follow the weighted delay / perplexity / exchange
objective with large per-violation penalties for the memory and
exchange-cap constraints. Observations and penalties are array operations
over the world's per-device arrays.

``EnvParams`` is the one schema of the simulated world. ``reset(seed)``
makes three named streams from the seed: population (capacities, compute
speeds, data sizes, start positions, then the bandwidth budget), mobility and
fading. No setting other than the seed and the population, mobility and
channel parameters moves positions or gains, and no action does; so ``step``
draws them ``CHUNK`` rounds at a time, and the world's mobility arrays and
streams run up to a chunk ahead of ``round_index``. The env keeps three
chunk-sized buffers across resets: a training chunk's gains and its fading
normals, and the dB gain feature of any chunk. So a training gains row is
valid only until the next chunk is drawn, while an eval env's recorded
chunks are new arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .federation import (
    ActionBundle,
    ActionDecodeError,
    FederationMode,
    World,
    run_round,
)
from .simcore import DeviceProfile, final_perplexity, stream
from .wireless import dbm_per_hz_to_watts

__all__ = ["EnvParams", "RewardBreakdown", "ActionDecodeError", "AdaptiveFedEnv"]

CHUNK = 20  # rounds of gains per World.advance_channel call


@dataclass(frozen=True)
class EnvParams:
    """Everything one environment instance needs, and the one schema of the
    simulated world: ``simcore``, ``wireless`` and ``federation`` read their
    settings from it by these names. Defaults are the desk-scale experiment
    configuration. Settings are checked here, when the config loads."""

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

    # perplexity surrogate: quad_a*r^2 + quad_b*r + quad_c + lora_delta at
    # retention r, approached from p_init by convergence_rate per round tuned
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

    # channel, and random-waypoint mobility in a disc around the server
    noise_dbm_per_hz: float = -174.0  # thermal noise floor
    bandwidth_budget_range: tuple[float, float] = (7e9, 20e9)  # Hz, downlink
    power_budget: float = 15.0  # W
    pathloss_exponent: float = 3.5
    reference_distance: float = 1.0  # m
    reference_loss_db: float = 40.0
    rician_k: float = 3.0
    area_radius: float = 55.0  # m
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

    def __post_init__(self):
        for name in ("n_devices", "rounds", "levels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 1 <= self.select_k <= self.n_devices:
            raise ValueError("select_k must lie in [1, n_devices]")
        for name in ("local_epochs", "rician_k", "waypoint_pause"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("total_params", "total_bytes", "server_speed_factor",
                     "power_budget", "reference_distance", "area_radius",
                     "p_init", "mem_fraction_q", "exchange_fraction_c",
                     "delay_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.adapter_top_layers + self.adapter_bottom_layers >= self.layer_count:
            raise ValueError(
                "adapter_top_layers + adapter_bottom_layers must be < layer_count")
        for name in ("memory_capacity_range", "compute_speed_range",
                     "bandwidth_budget_range"):
            low, high = getattr(self, name)
            if not 0 < low <= high:
                raise ValueError(f"{name} must satisfy 0 < low <= high")
        low, high = self.data_size_range
        if not 1 <= low <= high:
            raise ValueError("data_size_range must satisfy 1 <= low <= high")
        if not 0 <= self.speed_range[0] <= self.speed_range[1]:
            raise ValueError("speed_range must satisfy 0 <= low <= high")
        if not 0 <= self.convergence_rate <= 1:
            raise ValueError("convergence_rate must lie in [0, 1]")
        if not 0 <= self.server_data_fraction < 1:
            raise ValueError("server_data_fraction must lie in [0, 1)")
        if not 2.0 <= self.pathloss_exponent <= 6.0:
            raise ValueError("pathloss_exponent must lie in [2, 6]")
        try:
            psd = self.noise_psd
        except OverflowError:  # a float power past the float range
            psd = math.inf
        if not 0.0 < psd < math.inf:
            raise ValueError("noise_dbm_per_hz must give a positive, finite "
                             "noise PSD")
        modes = [m.value for m in FederationMode]
        if self.mode not in modes:
            raise ValueError(f"mode must be one of {', '.join(modes)}")
        if not (self.retention_grid
                and all(0.0 < r <= 1.0 for r in self.retention_grid)):
            raise ValueError("retention_grid must be non-empty with every "
                             "value in (0, 1]")
        # perplexity_step refuses a target that is not positive
        for r in (*self.retention_grid, 1.0):
            target = final_perplexity(self, r)
            if not target > 0:
                raise ValueError(
                    "quad_a, quad_b, quad_c and lora_delta must give a "
                    f"positive final perplexity; it is {target} at retention "
                    f"{r}")

    @property
    def noise_psd(self) -> float:
        """Thermal noise power spectral density in W/Hz."""
        return dbm_per_hz_to_watts(self.noise_dbm_per_hz)

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
        self.mode = FederationMode(self.params.mode)
        self.world: World | None = None
        self.round_index = 0
        self.last_outcome = None
        self._channels: dict[int, list[np.ndarray]] = {}  # chunks per seed
        # chunk buffers that outlive a reset: a training chunk's gains and
        # fading normals, and the dB gain feature (fading powers mid-draw)
        n = self.params.n_devices
        self._gains = np.empty((CHUNK, n))
        self._normals = np.empty((CHUNK, n, 2))
        self._feature = np.empty((CHUNK, n))

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed: int, replay: bool = False) -> np.ndarray:
        """Start an episode from ``seed``; the env keeps the current chunk of
        read-only gains rows. With ``replay``, it records the episode's chunks
        (``rounds + 1`` rows) for the seed, kept once its last round is
        stepped, or replays kept ones: the world is built as always, but its
        mobility arrays and streams do not advance."""
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
            compute_speed=p.server_speed_factor * p.compute_speed_range[1],
            data_size=max(1, round(frac / (1.0 - frac) * int(data.sum()))),
        )
        self.world = World(
            params=p,
            bandwidth_budget=population.uniform(*p.bandwidth_budget_range),
            profile=DeviceProfile(compute_speed=speed, data_size=data),
            server=server,
            position=np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1),
            mobility_rng=stream(seed, 4, 2),
            fading_rng=stream(seed, 4, 3),
        )
        self._capacity_obs = capacity / p.memory_capacity_range[1]
        self._memory_cap = capacity / p.mem_fraction_q
        recorded = self._channels.get(seed) if replay else None
        self._replay = None if recorded is None else iter(recorded)
        self._recording = [] if replay and recorded is None else None
        self._seed = seed
        self.round_index = 0
        self.last_outcome = None
        self._next_chunk()
        self.world.gains = self._chunk[0]
        return self._observation()

    def step(self, action: ActionBundle):
        """Check the action, run one round and return (obs, reward, done)."""
        if self.world is None or self.round_index >= self.params.rounds:
            raise RuntimeError("reset() must be called before step()")
        self._validate(action)
        p = self.params
        outcome = run_round(self.world, action, self.mode, self.round_index)
        self.last_outcome = outcome

        max_q = max(outcome.max_q, p.delay_floor)
        r_d = -p.xi_f * math.log(max_q) / p.rounds
        # bit-equal to .mean(): the same pairwise sum; 0/1 exchanges counted
        n, exchanges = p.n_devices, np.count_nonzero(outcome.exchanges_this_round)
        r_p = -p.xi_p * float(np.add.reduce(outcome.perplexities) / n) / p.rounds
        r_s = -p.xi_s * (exchanges / n) / p.rounds

        violations = int(
            np.count_nonzero(outcome.footprints
                             > self._memory_cap[list(action.selection)])
            + np.count_nonzero(self.world.exchange_count > p.exchange_cap))
        penalty = p.kappa * violations if violations else 0.0

        reward = RewardBreakdown(r_d=r_d, r_p=r_p, r_s=r_s, penalty=penalty)

        self.round_index += 1
        if self.round_index == self._chunk_start + len(self._chunk):
            self._next_chunk()
        self.world.gains = self._chunk[self.round_index - self._chunk_start]
        done = self.round_index >= p.rounds
        if done and self._recording is not None:  # complete: kept to replay
            self._channels[self._seed] = self._recording
        obs = self._observation()

        return obs, reward, done

    # -- action decoding ----------------------------------------------

    def decode_branch_actions(self, selection_indices, bandwidth_indices,
                              power_indices, retention_indices) -> ActionBundle:
        """Map raw branch index groups onto a joint action: levels count
        from 1 and retention indices look up the grid. ``step`` checks the
        result against the action space."""
        grid = self.params.retention_grid
        ret_idx = np.asarray(retention_indices).tolist()
        # a negative index would wrap around the grid
        if ret_idx and not (0 <= min(ret_idx) and max(ret_idx) < len(grid)):
            raise ActionDecodeError(
                f"retention indices must lie in [0, {len(grid)})")
        try:
            retentions = tuple(map(grid.__getitem__, ret_idx))
        except TypeError:
            raise ActionDecodeError("retention indices must be integers") from None
        return ActionBundle(
            selection=tuple(np.asarray(selection_indices).tolist()),
            bandwidth_levels=tuple((np.asarray(bandwidth_indices) + 1).tolist()),
            power_levels=tuple((np.asarray(power_indices) + 1).tolist()),
            retentions=retentions,
        )

    # -- helpers -------------------------------------------------------

    def _next_chunk(self):
        """Make current the chunk of gains rows from ``round_index`` on,
        replayed or drawn (round 0's by building the world, later ones up to
        CHUNK rounds at a time) and recorded; compute its dB feature once.
        A training chunk is drawn into the env's buffers, so its rows are
        valid until the next draw."""
        recording = self._recording is not None
        if self._replay is not None:
            chunk = next(self._replay)
        else:
            if self.round_index:
                rounds = min(CHUNK, self.params.rounds + 1 - self.round_index)
                # a kept chunk is a new array; its normals are too, since a
                # seed is recorded once and the buffer need not stay resident
                chunk = self.world.advance_channel(
                    rounds, out=None if recording else self._gains[:rounds],
                    fading=self._feature[:rounds],
                    normals=None if recording else self._normals[:rounds])
            else:
                chunk = self.world.gains[None]
            chunk.flags.writeable = False
            if recording:
                self._recording.append(chunk)
        self._chunk, self._chunk_start = chunk, self.round_index
        db = self._gain_obs = self._feature[:len(chunk)]
        np.log10(np.maximum(chunk, 1e-30, out=db), out=db)
        np.divide(np.multiply(db, 10.0, out=db), 100.0, out=db)

    def _validate(self, action: ActionBundle):
        """Reject an action outside the action space, naming the field."""
        p = self.params
        if len(action.selection) != p.select_k:
            raise ActionDecodeError(f"selection must pick {p.select_k} devices")
        for name, lo, hi in (("selection", 0, p.n_devices - 1),
                             ("bandwidth_levels", 1, p.levels),
                             ("power_levels", 1, p.levels)):
            try:
                values = list(map(operator.index, getattr(action, name)))
            except TypeError:
                raise ActionDecodeError(f"{name} must be integers") from None
            if values and not (lo <= min(values) and max(values) <= hi):
                raise ActionDecodeError(f"{name} must lie in [{lo}, {hi}]")

    def _observation(self) -> np.ndarray:
        p = self.params
        n = p.n_devices
        obs = np.empty(p.observation_dim)
        obs[:n] = self._gain_obs[self.round_index - self._chunk_start]
        # available capacity; a new emulator replaces the old one, so the
        # memory constraint depends on capacity, not current holdings
        obs[n:2 * n] = self._capacity_obs
        obs[2 * n:3 * n] = self.world.exchange_count / p.rounds
        obs[3 * n] = self.round_index / p.rounds
        return obs
