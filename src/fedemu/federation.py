"""Round structure of the collaborative tuning loop.

One round: the orchestrator's decoded action picks devices, compressed-model
retentions and downlink resource levels; changed emulators are shipped, and
the selected devices (plus the server, which always trains on its own data)
tune locally, which moves their perplexity toward the surrogate's value for
their retention. Adapter weights are not simulated: no reward, observation
or metric reads them. Three federation modes cover per-device compression, a
pinned full frozen backbone, and full-model federated tuning.

The world holds the device population as arrays (struct of arrays), and a
round is a fixed number of array operations whatever the population size.
Mobility and fading draw from their own named streams, so no other setting
moves the channel.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .simcore import (
    AdapterSpec,
    DeviceProfile,
    EmulatorSpec,
    ModelSpec,
    PerplexitySurrogate,
    compute_delay,
    emulator_from_retention,
    final_perplexity,
    memory_footprint,
    perplexity_step,
)
from .wireless import (
    ChannelParams,
    MobilityModel,
    advance_mobility,
    allocate_budgets,
    channel_gain,
    shannon_rate,
    transmission_delay,
)

__all__ = [
    "FederationMode",
    "ActionBundle",
    "World",
    "RoundOutcome",
    "disseminate",
    "local_tuning",
    "run_round",
]


class FederationMode(str, enum.Enum):
    FEDPEAT = "fedpeat"   # controller picks per-device retention
    FEDPEFT = "fedpeft"   # full frozen backbone, adapters only
    FEDFT = "fedft"       # full model shipped and trained every round


@dataclass(frozen=True)
class ActionBundle:
    """Decoded joint action for one round.

    ``selection`` holds K distinct device indices; the level/retention tuples
    are aligned with the selection order.
    """

    selection: tuple[int, ...]
    bandwidth_levels: tuple[int, ...]
    power_levels: tuple[int, ...]
    retentions: tuple[float, ...]

    def __post_init__(self):
        k = len(self.selection)
        if len(set(self.selection)) != k:
            raise ValueError("selection indices must be distinct")
        if not (len(self.bandwidth_levels) == len(self.power_levels)
                == len(self.retentions) == k):
            raise ValueError("per-selected fields must match selection length")


@dataclass
class World:
    """Everything one simulated deployment owns, as arrays over devices.

    Entry i of every per-device array belongs to device i: ``position`` and
    ``waypoint`` are (N, 2), waypoint rows are NaN between mobility legs,
    ``retention`` is NaN before a device's first emulator. The server is
    scalar. Mobility and fading each draw from their own stream;
    constructing the world draws the first fading sample.
    """

    model: ModelSpec
    adapter_spec: AdapterSpec
    surrogate: PerplexitySurrogate
    channel: ChannelParams
    mobility: MobilityModel
    profile: DeviceProfile        # per-device capacities, speeds, data sizes
    server: DeviceProfile
    position: np.ndarray
    mobility_rng: np.random.Generator
    fading_rng: np.random.Generator
    epochs: int = 2
    waypoint: np.ndarray = field(init=False)
    pause_left: np.ndarray = field(init=False)
    leg_speed: np.ndarray = field(init=False)
    retention: np.ndarray = field(init=False)
    perplexity: np.ndarray = field(init=False)
    exchange_count: np.ndarray = field(init=False)
    memory_used: np.ndarray = field(init=False)
    gains: np.ndarray = field(init=False)
    server_perplexity: float = field(init=False)
    _emulator_cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n = len(self.position)
        self.waypoint = np.full((n, 2), np.nan)
        self.pause_left = np.zeros(n, dtype=int)
        self.leg_speed = np.zeros(n)
        self.retention = np.full(n, np.nan)
        self.perplexity = np.full(n, self.surrogate.p_init)
        self.exchange_count = np.zeros(n, dtype=int)
        self.memory_used = np.zeros(n)
        self.server_perplexity = self.surrogate.p_init
        self._sample_gains()

    @property
    def n_devices(self) -> int:
        return len(self.position)

    def emulator(self, retention: float) -> EmulatorSpec:
        spec = self._emulator_cache.get(retention)
        if spec is None:
            spec = emulator_from_retention(self.model, self.adapter_spec, retention)
            self._emulator_cache[retention] = spec
        return spec

    def full_model_emulator(self) -> EmulatorSpec:
        """Pseudo-emulator used in full-model mode: backbone plus adapter
        together span the entire model."""
        spec = self._emulator_cache.get("full")
        if spec is None:
            spec = EmulatorSpec(
                retention=1.0,
                layer_count=self.model.layer_count,
                params=self.model.total_params - self.adapter_spec.params,
                bytes=self.model.total_bytes - self.adapter_spec.bytes,
            )
            self._emulator_cache["full"] = spec
        return spec

    def _sample_gains(self):
        dist = np.hypot(self.position[:, 0], self.position[:, 1])
        self.gains = channel_gain(dist, self.channel, self.fading_rng)

    def advance_channel(self):
        """Move devices one mobility step and resample fading."""
        advance_mobility(self.position, self.waypoint, self.pause_left,
                         self.leg_speed, self.mobility, self.mobility_rng)
        self._sample_gains()


@dataclass
class DisseminationResult:
    """Per selected device, aligned with the selection."""

    changed: np.ndarray
    emulator: EmulatorSpec
    payload_bytes: np.ndarray  # downlink cost if changed


@dataclass
class RoundOutcome:
    round_index: int
    mode: FederationMode
    selection: tuple[int, ...]
    q: np.ndarray                 # per-device round time, 0 for unselected
    server_q: float
    perplexities: np.ndarray      # post-tuning, stale for unselected
    server_perplexity: float
    exchanges_this_round: np.ndarray
    payload_bytes: np.ndarray
    footprints: np.ndarray        # assigned memory per selected device
    rates: np.ndarray

    @property
    def max_q(self) -> float:
        sel = list(self.selection)
        worst = self.server_q
        if sel:
            worst = max(worst, float(self.q[sel].max()))
        return worst

    def to_json_row(self) -> str:
        # q and payload_bytes are exact 0.0 off the selection, so only the
        # selected entries are rounded; each distinct perplexity is rounded
        # once
        sel = list(self.selection)
        q = [0.0] * len(self.q)
        payload = [0.0] * len(self.payload_bytes)
        for i, qi, bytes_i in zip(sel, self.q[sel].tolist(),
                                  self.payload_bytes[sel].tolist()):
            q[i] = round(qi, 9)
            payload[i] = bytes_i
        levels, which = np.unique(self.perplexities, return_inverse=True)
        rounded = [round(x, 6) for x in levels.tolist()]
        return json.dumps({
            "round": self.round_index,
            "mode": self.mode.value,
            "selection": sel,
            "q": q,
            "server_q": round(self.server_q, 9),
            "perplexities": [rounded[i] for i in which.tolist()],
            "server_perplexity": round(self.server_perplexity, 6),
            "exchanges": self.exchanges_this_round.tolist(),
            "payload_bytes": payload,
        })


def disseminate(world: World, selection: np.ndarray, retention: np.ndarray,
                mode: FederationMode) -> DisseminationResult:
    """Assign emulators for the round and flag which selected devices need a
    downlink transfer. Exchange counts, retentions and assigned memory are
    updated here."""
    if mode is FederationMode.FEDFT:
        emulator = world.full_model_emulator()
        changed = np.ones(len(selection), dtype=bool)
        payload = np.full(len(selection), float(world.model.total_bytes))
        footprint = memory_footprint(emulator, world.adapter_spec)
    else:
        emulator = emulator_from_retention(world.model, world.adapter_spec,
                                           retention)
        changed = world.retention[selection] != retention
        payload = emulator.bytes
        footprint = memory_footprint(emulator, world.adapter_spec)[changed]
    moved = selection[changed]
    world.exchange_count[moved] += 1
    world.retention[moved] = retention[changed]
    world.memory_used[moved] = footprint
    return DisseminationResult(changed, emulator, payload)


def local_tuning(perplexity, retention, epochs: int,
                 surrogate: PerplexitySurrogate):
    """Synthetic local tuning: perplexity decays toward the surrogate's final
    value for the assigned retention; zero epochs change nothing."""
    if epochs <= 0:
        return perplexity
    target = final_perplexity(surrogate, retention)
    return perplexity_step(perplexity, True, target, surrogate.convergence_rate)


def run_round(world: World, actions: ActionBundle, mode: FederationMode,
              round_index: int = 0) -> RoundOutcome:
    """Execute one round: dissemination, downlink transfers, and local tuning
    on the selected devices plus the server."""
    n = world.n_devices
    selection = np.asarray(actions.selection, dtype=int)
    if mode is FederationMode.FEDPEAT:
        retention = np.asarray(actions.retentions, dtype=float)
    else:
        retention = np.ones(len(selection))

    res = disseminate(world, selection, retention, mode)

    bw_hz = pw_w = np.zeros(n)
    if selection.size:
        levels_bw = np.zeros(n)
        levels_pw = np.zeros(n)
        levels_bw[selection] = actions.bandwidth_levels
        levels_pw[selection] = actions.power_levels
        bw_hz, pw_w = allocate_budgets(levels_bw, levels_pw, selection,
                                       world.channel)

    rates = np.zeros(n)
    rates[selection] = shannon_rate(bw_hz[selection], pw_w[selection],
                                    world.gains[selection],
                                    world.channel.noise_psd)
    d_trans = transmission_delay(True, res.changed, res.payload_bytes,
                                 rates[selection])
    d_comp = compute_delay(world.profile.data_size[selection],
                           world.profile.compute_speed[selection],
                           res.emulator.params + world.adapter_spec.params,
                           world.epochs)
    world.perplexity[selection] = local_tuning(
        world.perplexity[selection], retention, world.epochs, world.surrogate)

    q = np.zeros(n)
    q[selection] = d_comp + d_trans
    payloads = np.zeros(n)
    payloads[selection] = np.where(res.changed, res.payload_bytes, 0.0)
    footprints = np.zeros(n)
    footprints[selection] = world.memory_used[selection]
    exchanges = np.zeros(n, dtype=int)
    exchanges[selection] = res.changed

    # Server trains every round on its own shard; no downlink to itself.
    server_emulator = (world.full_model_emulator() if mode is FederationMode.FEDFT
                       else world.emulator(1.0))
    server_q = float(compute_delay(world.server.data_size,
                                   world.server.compute_speed,
                                   server_emulator.params + world.adapter_spec.params,
                                   world.epochs))
    world.server_perplexity = float(local_tuning(
        world.server_perplexity, 1.0, world.epochs, world.surrogate))

    return RoundOutcome(
        round_index=round_index,
        mode=mode,
        selection=actions.selection,
        q=q,
        server_q=server_q,
        perplexities=world.perplexity.copy(),
        server_perplexity=world.server_perplexity,
        exchanges_this_round=exchanges,
        payload_bytes=payloads,
        footprints=footprints,
        rates=rates,
    )
