"""Round structure of the collaborative tuning loop.

One round: the orchestrator's joint action picks devices, compressed-model
retentions and downlink resource levels; changed emulators are shipped, and
the selected devices (plus the server, which always trains on its own data)
tune locally, which moves their perplexity toward the surrogate's value for
their retention. Adapter weights are not simulated: no reward, observation
or metric reads them. Three federation modes cover per-device compression, a
pinned full frozen backbone, and full-model federated tuning.

The world holds the device population as arrays (struct of arrays), and
tables what the settings and the episode's draw fix once, when built. A
round looks those up and scatters selection-aligned arrays into the N-long
outcome once: a fixed number of array operations at any population size.
Mobility and fading have named streams, so no other setting moves them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .simcore import (
    AdapterSpec,
    DeviceProfile,
    compute_delay,
    emulator_from_retention,
    final_perplexity,
    memory_footprint,
    perplexity_step,
)
from .wireless import (
    advance_mobility,
    allocate_budgets,
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
            raise ActionDecodeError("selection indices must be distinct")
        if not (len(self.bandwidth_levels) == len(self.power_levels)
                == len(self.retentions) == k):
            raise ActionDecodeError(
                "bandwidth_levels, power_levels and retentions must each "
                "hold one entry per selected device")


_TOP, _FULL = -2, -1  # table columns of the 1.0 emulator and the whole model


@functools.lru_cache(maxsize=32)
def _retention_tables(params: EnvParams):
    """Each grid retention's column, and rows of retention, bytes sent,
    footprint, target perplexity and trained parameters over
    ``retention_grid + (1.0, whole model)``, by the checked helpers."""
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
    return {r: i for i, r in enumerate(params.retention_grid)}, columns


@dataclass
class World:
    """Everything one simulated deployment owns, as arrays over devices.

    Settings come from ``params``, the one schema of the world, and the
    rest is drawn per episode. Entry i of every per-device array belongs to
    device i: ``position`` and ``waypoint`` are (N, 2), waypoint rows are NaN
    between mobility legs, ``retention`` is NaN before a device's first
    emulator. The server is scalar; outside full-model mode it tunes the
    full-retention emulator plus the adapter. Mobility and fading each draw
    from their own stream; constructing the world draws round 0's ``gains``
    and builds, for rounds to look up, the ``columns`` (one table per
    ``params``) and each column's tuning time (N x C ``local_q``, ``server_q``).
    ``advance_channel`` draws the gains of a chunk of later rounds at once,
    and the env hands ``gains`` each round's row. So the mobility arrays and
    streams run up to a chunk ahead of the round being played; a world whose
    env replays a recorded channel does not advance them at all.
    """

    params: EnvParams
    bandwidth_budget: float       # Hz, drawn per episode
    profile: DeviceProfile        # per-device capacities, speeds, data sizes
    server: DeviceProfile
    position: np.ndarray
    mobility_rng: np.random.Generator
    fading_rng: np.random.Generator
    waypoint: np.ndarray = field(init=False)
    pause_left: np.ndarray = field(init=False)
    leg_speed: np.ndarray = field(init=False)
    retention: np.ndarray = field(init=False)
    perplexity: np.ndarray = field(init=False)
    exchange_count: np.ndarray = field(init=False)
    gains: np.ndarray = field(init=False)
    server_perplexity: float = field(init=False)
    grid_column: dict[float, int] = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)
    local_q: np.ndarray = field(init=False, repr=False)
    server_q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.position)
        p = self.params
        self.grid_column, self.columns = _retention_tables(p)
        self.waypoint = np.full((n, 2), np.nan)
        self.pause_left = np.zeros(n, dtype=int)
        self.leg_speed = np.zeros(n)
        self.retention = np.full(n, np.nan)
        self.perplexity = np.full(n, p.p_init)
        self.exchange_count = np.zeros(n, dtype=int)
        self.server_perplexity = p.p_init
        trained, epochs = self.columns[4], p.local_epochs
        self.local_q = compute_delay(self.profile.data_size[:, None],
                                     self.profile.compute_speed[:, None],
                                     trained, epochs)
        self.server_q = compute_delay(self.server.data_size,
                                      self.server.compute_speed, trained, epochs)
        dist = np.hypot(self.position[:, 0], self.position[:, 1])
        self.gains = channel_gain(dist, p, self.fading_rng, out=dist)

    @property
    def n_devices(self) -> int:
        return len(self.position)

    def advance_channel(self, rounds: int, out=None, fading=None,
                        normals=None) -> np.ndarray:
        """Move devices ``rounds`` mobility steps and return a (rounds, N)
        array of the gains after each step, from one path-loss pass and one
        fading draw; ``gains`` is left to the caller. The gains go to
        ``out`` if given, else to a new array; ``fading`` and ``normals``
        are work arrays passed on to ``channel_gain``."""
        gains = np.empty((rounds, self.n_devices)) if out is None else out
        for row in gains:
            advance_mobility(self.position, self.waypoint, self.pause_left,
                             self.leg_speed, self.params, self.mobility_rng)
            np.hypot(self.position[:, 0], self.position[:, 1], out=row)
        return channel_gain(gains, self.params, self.fading_rng, out=gains,
                            fading=fading, normals=normals)


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
    footprints: np.ndarray        # memory each selected device needs, aligned
                                  # with the selection
    rates: np.ndarray

    @property
    def max_q(self) -> float:
        # q is 0 off the selection and the server's time is never negative
        return max(self.server_q, float(self.q.max()))


def _number(x: float) -> str:
    """JSON text of a float, as ``json.dumps`` writes it."""
    return x.__repr__() if math.isfinite(x) else json.dumps(x)


class RoundTraceWriter:
    """Writes one JSON line per round to ``file``: the round index, mode and
    selection, and the per-device ``q`` (rounded to 1e-9 s), perplexities
    (rounded to 1e-6), exchanges and payload bytes, plus the server's
    ``q`` and perplexity.

    Each line is ``json.dumps`` of that row's dict, built in O(K) Python
    work per round: entries of ``q``, ``exchanges`` and ``payload_bytes``
    off the selection are zero (``run_round`` scatters them so), the text
    of each distinct payload value is rendered once per writer (there are
    at most ``len(retention_grid) + 2``), and the text of each perplexity is
    kept from the previous line and rendered again only where its bits
    changed. The first line of an episode renders every perplexity.
    """

    def __init__(self, file):
        self._file = file
        self._perplexity = np.empty(0)
        self._perplexity_text: list[str] = []
        self._payload_text: dict[float, str] = {}

    def write(self, outcome: RoundOutcome) -> None:
        sel = list(outcome.selection)
        n = len(outcome.perplexities)
        q = ["0.0"] * n
        payload = ["0.0"] * n
        exchanges = ["0"] * n
        known = self._payload_text
        for i, qi, bytes_i, ex in zip(
                sel, outcome.q[sel].tolist(), outcome.payload_bytes[sel].tolist(),
                outcome.exchanges_this_round[sel].tolist()):
            q[i] = _number(round(qi, 9))
            if bytes_i not in known:
                known[bytes_i] = _number(bytes_i)
            payload[i] = known[bytes_i]
            exchanges[i] = str(ex)

        perplexity = outcome.perplexities.copy()
        if outcome.round_index == 0 or n != len(self._perplexity):
            self._perplexity_text = [""] * n
            changed = np.arange(n)
        else:
            changed = np.flatnonzero(perplexity.view(np.int64)
                                     != self._perplexity.view(np.int64))
        text = self._perplexity_text
        for i, x in zip(changed.tolist(), perplexity[changed].tolist()):
            text[i] = _number(round(x, 6))
        self._perplexity = perplexity

        self._file.write(
            f'{{"round": {outcome.round_index}, '
            f'"mode": {json.dumps(outcome.mode.value)}, '
            f'"selection": [{", ".join(map(str, sel))}], '
            f'"q": [{", ".join(q)}], '
            f'"server_q": {_number(round(outcome.server_q, 9))}, '
            f'"perplexities": [{", ".join(text)}], '
            '"server_perplexity": '
            f'{_number(round(outcome.server_perplexity, 6))}, '
            f'"exchanges": [{", ".join(exchanges)}], '
            f'"payload_bytes": [{", ".join(payload)}]}}\n')


def run_round(world: World, actions: ActionBundle, mode: FederationMode,
              round_index: int = 0) -> RoundOutcome:
    """Execute one round: emulator assignment, downlink transfers, and local
    tuning on the selected devices plus the server.

    Retentions index the world's tables (fedpeat refuses one off the grid
    before the world changes); arrays stay aligned with the selection until
    the outcome is built. A selected device whose retention changed is sent
    its emulator and counts an exchange; in full-model mode every selected
    device is sent the whole model. Zero local epochs tune nothing.
    """
    sel = np.asarray(actions.selection, dtype=int)
    k = sel.size
    p = world.params
    full = mode is FederationMode.FEDFT
    server = _FULL if full else _TOP  # the server's column
    if mode is FederationMode.FEDPEAT:
        try:
            col = np.array(list(map(world.grid_column.__getitem__,
                                    actions.retentions)), dtype=int)
        except KeyError:
            raise ActionDecodeError(
                f"retentions must lie on the grid {p.retention_grid}") from None
    else:
        col = np.full(k, server)
    retention, payload, footprint, target, _ = world.columns.take(col, axis=1)
    changed = np.ones(k, dtype=bool) if full else world.retention[sel] != retention
    moved = sel[changed]
    world.exchange_count[moved] += 1
    world.retention[moved] = retention[changed]

    rates = np.zeros(k)
    if k:
        bw_hz, pw_w = allocate_budgets(actions.bandwidth_levels,
                                       actions.power_levels, sel,
                                       world.bandwidth_budget, p.power_budget)
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
        selection=actions.selection,
        q=scatter(q),
        server_q=server_q,
        perplexities=world.perplexity.copy(),
        server_perplexity=world.server_perplexity,
        exchanges_this_round=scatter(changed, int),
        payload_bytes=scatter(payload * changed),
        footprints=footprint,
        rates=scatter(rates),
    )
