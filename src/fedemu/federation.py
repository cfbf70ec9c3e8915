"""Round structure of the collaborative tuning loop.

One round: the orchestrator's joint action (``ActionBundle``, four index
arrays aligned with the selection) picks devices, downlink resource levels
and compressed-model retentions; changed emulators are shipped, and
the selected devices (plus the server, which always trains on its own data)
tune locally, which moves their perplexity toward the surrogate's value for
their retention. Adapter weights are not simulated: no reward, observation
or metric reads them. Three federation modes cover per-device compression, a
pinned full frozen backbone, and full-model federated tuning.

``World(params, seed)`` builds one episode: it draws the device population
from the seed, holds it as arrays (struct of arrays), and tables what the
settings and that draw fix once. A round looks those up and scatters
selection-aligned arrays into the N-long outcome once: a fixed number of
array operations at any population size. Population, mobility and fading
have named streams, so no other setting moves them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .simcore import (
    AdapterSpec,
    compute_delay,
    emulator_from_retention,
    final_perplexity,
    memory_footprint,
    perplexity_step,
    stream,
)
from .wireless import (
    advance_mobility,
    allocate_budgets,
    budget_terms,
    channel_gain,
    shannon_rate,
    transmission_delay,
)

if TYPE_CHECKING:
    from .env import EnvParams

__all__ = [
    "FederationMode",
    "ActionDecodeError",
    "ActionBundle",
    "World",
    "RoundOutcome",
    "RoundTraceWriter",
    "run_round",
]


class FederationMode(str, enum.Enum):
    FEDPEAT = "fedpeat"   # controller picks per-device retention
    FEDPEFT = "fedpeft"   # full frozen backbone, adapters only
    FEDFT = "fedft"       # full model shipped and trained every round


class ActionDecodeError(ValueError):
    """Raised when a joint action does not fit the action space."""


@dataclass(frozen=True)
class ActionBundle:
    """Joint action for one round: four (K,) integer arrays aligned with the
    selection order. ``selection`` holds device indices, ``bandwidth_levels``
    and ``power_levels`` count from 1, and ``retention_columns`` index
    ``retention_grid``, which is also the world tables' column order.
    ``AdaptiveFedEnv.step`` checks a bundle against the action space;
    ``run_round`` trusts it.
    """

    selection: np.ndarray
    bandwidth_levels: np.ndarray
    power_levels: np.ndarray
    retention_columns: np.ndarray


_TOP, _FULL = -2, -1  # table columns of the 1.0 emulator and the whole model


@functools.lru_cache(maxsize=32)
def _retention_tables(params: EnvParams):
    """Rows of retention, bytes sent, footprint, target perplexity and
    trained parameters over ``retention_grid + (1.0, whole model)``, by the
    checked helpers."""
    adapter = AdapterSpec.for_model(params)
    retention = np.array((*params.retention_grid, 1.0, 1.0))
    emulator = emulator_from_retention(params, adapter, retention)
    columns = np.array([retention, emulator.bytes,
                        memory_footprint(emulator, adapter),
                        final_perplexity(params, retention),
                        emulator.params + adapter.params])
    columns[1:3, _FULL] = params.total_bytes  # the whole model, no adapter
    columns[4, _FULL] = params.total_params
    columns.flags.writeable = False
    return columns


class World:
    """Everything one simulated episode owns, as arrays over devices.

    Settings come from ``params``, the one schema of the world; the rest is
    drawn from three named streams of ``seed``. The population stream draws
    each device's ``capacity``, ``compute_speed`` and ``data_size``, start
    radii and angles, then the ``bandwidth_budget``, in that order. Entry i
    of every per-device array belongs to device i: ``position`` and
    ``waypoint`` are (N, 2), waypoint rows are NaN between mobility legs,
    ``retention`` is NaN before a device's first emulator. The server is
    scalar (``server_speed``, ``server_data_size``, which is
    ``server_data_fraction`` of all data); outside full-model mode it tunes
    the full-retention emulator plus the adapter. Building the world draws
    round 0's ``gains`` and makes, for rounds to look up, the ``columns``
    (one table per ``params``) and each column's tuning time (N x C
    ``local_q``, ``server_q``). ``advance_channel`` draws later rounds'
    gains, one mobility call and one fading draw a run of rounds. The env's
    reset draws (or replays) the whole episode's channel before round 0 and
    hands ``gains`` each round's row as the round comes. ``budgets`` holds
    ``wireless.budget_terms`` of the episode's bandwidth and the power
    budget, which every round's ``allocate_budgets`` reads.
    """

    def __init__(self, params: EnvParams, seed: int):
        p = self.params = params
        n = p.n_devices
        population = stream(seed, 4, 1)
        self.capacity = population.uniform(*p.memory_capacity_range, size=n)
        self.compute_speed = population.uniform(*p.compute_speed_range, size=n)
        self.data_size = population.integers(p.data_size_range[0],
                                             p.data_size_range[1] + 1, size=n)
        r = p.area_radius * np.sqrt(population.uniform(size=n))
        theta = population.uniform(0.0, 2.0 * math.pi, size=n)
        self.bandwidth_budget = population.uniform(*p.bandwidth_budget_range)
        self.budgets = budget_terms(self.bandwidth_budget, p.power_budget)
        self.position = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        self.mobility_rng = stream(seed, 4, 2)
        self.fading_rng = stream(seed, 4, 3)
        frac = p.server_data_fraction
        self.server_speed = p.server_speed_factor * p.compute_speed_range[1]
        self.server_data_size = max(
            1, round(frac / (1.0 - frac) * int(self.data_size.sum())))

        self.columns = _retention_tables(p)
        self.waypoint = np.full((n, 2), np.nan)
        self.pause_left = np.zeros(n, dtype=int)
        self.leg_speed = np.zeros(n)
        self.retention = np.full(n, np.nan)
        self.perplexity = np.full(n, p.p_init)
        self.exchange_count = np.zeros(n, dtype=int)
        self.server_perplexity = p.p_init
        trained, epochs = self.columns[4], p.local_epochs
        self.local_q = compute_delay(self.data_size[:, None],
                                     self.compute_speed[:, None], trained,
                                     epochs)
        self.server_q = compute_delay(self.server_data_size, self.server_speed,
                                      trained, epochs)
        dist = np.hypot(self.position[:, 0], self.position[:, 1])
        self.gains = channel_gain(dist, p, self.fading_rng, out=dist)

    @property
    def n_devices(self) -> int:
        return len(self.position)

    def advance_channel(self, out: np.ndarray, fading=None,
                        normals=None) -> np.ndarray:
        """Move devices ``len(out)`` mobility steps in one ``advance_mobility``
        call and write the gains after each step to ``out``, a (rounds, N)
        array, which is returned; one path-loss pass and one fading draw.
        ``gains`` is left to the caller; ``fading`` and ``normals`` are work
        arrays passed on to ``channel_gain``."""
        advance_mobility(self.position, self.waypoint, self.pause_left,
                         self.leg_speed, self.params, self.mobility_rng, out)
        return channel_gain(out, self.params, self.fading_rng, out=out,
                            fading=fading, normals=normals)


@dataclass
class RoundOutcome:
    round_index: int
    mode: FederationMode
    selection: np.ndarray         # a copy of the action's (K,) device indices
    q: np.ndarray                 # per-device round time, 0 for unselected
    server_q: float
    max_q: float                  # the round's time, max(server_q, q.max())
    perplexities: np.ndarray      # post-tuning, stale for unselected
    server_perplexity: float
    exchanges_this_round: np.ndarray
    payload_bytes: np.ndarray
    footprints: np.ndarray        # memory each selected device needs, aligned
                                  # with the selection
    rates: np.ndarray


class RoundTraceWriter:
    """Writes one JSON line per round to ``file``, ``json.dumps`` of a dict:
    the round index, mode and selection; ``q`` (rounded to 1e-9 s),
    ``perplexities`` (rounded to 1e-6), ``exchanges`` and ``payload_bytes``,
    each K-long and aligned with the selection, as ``footprints`` is; and
    the server's ``q`` and perplexity. A device off the selection has zero
    ``q``, no exchange and no payload, and keeps its perplexity, since only
    selected devices tune. So zipping ``selection`` with the aligned lists
    gives the N-long ones back, each perplexity carried across an episode's
    lines from ``p_init`` at round 0.
    """

    def __init__(self, file):
        self._file = file

    def write(self, outcome: RoundOutcome) -> None:
        sel = outcome.selection
        self._file.write(json.dumps({
            "round": outcome.round_index,
            "mode": outcome.mode.value,
            "selection": sel.tolist(),
            "q": [round(x, 9) for x in outcome.q[sel].tolist()],
            "server_q": round(outcome.server_q, 9),
            "perplexities": [round(x, 6)
                             for x in outcome.perplexities[sel].tolist()],
            "server_perplexity": round(outcome.server_perplexity, 6),
            "exchanges": outcome.exchanges_this_round[sel].tolist(),
            "payload_bytes": outcome.payload_bytes[sel].tolist(),
        }) + "\n")


def run_round(world: World, actions: ActionBundle, mode: FederationMode,
              round_index: int = 0) -> RoundOutcome:
    """Execute one round: emulator assignment, downlink transfers, and local
    tuning on the selected devices plus the server.

    In fedpeat the action's ``retention_columns`` index the world's tables;
    otherwise every selected device takes the server's column. The action
    must lie in the action space (``AdaptiveFedEnv.step`` checks it). Arrays
    stay aligned with the selection until the outcome is built. A selected
    device whose retention changed is sent its emulator and counts an
    exchange; in full-model mode every selected device is sent the whole
    model. Zero local epochs tune nothing.
    """
    sel = actions.selection
    k = sel.size
    p = world.params
    full = mode is FederationMode.FEDFT
    server = _FULL if full else _TOP  # the server's column
    col = (actions.retention_columns if mode is FederationMode.FEDPEAT
           else np.full(k, server))
    retention, payload, footprint, target, _ = world.columns.take(col, axis=1)
    changed = np.ones(k, dtype=bool) if full else world.retention[sel] != retention
    moved = sel[changed]
    world.exchange_count[moved] += 1
    world.retention[moved] = retention[changed]

    rates = np.zeros(k)
    if k:
        bw_hz, pw_w = allocate_budgets(actions.bandwidth_levels,
                                       actions.power_levels, sel,
                                       world.budgets)
        rates = shannon_rate(bw_hz, pw_w, world.gains[sel], p.noise_psd)
    q = world.local_q[sel, col] + transmission_delay(changed, payload, rates)
    # Server trains every round on its own shard; no downlink to itself.
    server_q = float(world.server_q[server])
    if p.local_epochs > 0:
        rate = p.convergence_rate
        world.perplexity[sel] = perplexity_step(
            world.perplexity[sel], target, rate)
        world.server_perplexity = float(perplexity_step(
            world.server_perplexity, world.columns[3, server], rate))

    def scatter(values, dtype=float):
        out = np.zeros(world.n_devices, dtype=dtype)
        out[sel] = values
        return out

    return RoundOutcome(
        round_index=round_index,
        mode=mode,
        selection=sel.copy(),
        q=scatter(q),
        server_q=server_q,
        # the max over the scattered q too: no time is negative
        max_q=max(server_q, float(q.max(initial=0.0))),
        perplexities=world.perplexity.copy(),
        server_perplexity=world.server_perplexity,
        exchanges_this_round=scatter(changed, int),
        payload_bytes=scatter(payload * changed),
        footprints=footprint,
        rates=scatter(rates),
    )
