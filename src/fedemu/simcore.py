"""Domain types, analytic surrogates and seeded random streams.

The foundation model is never instantiated; only its size/layer structure is
tracked, and fine-tuning quality is carried by a quadratic perplexity
surrogate. Both read their settings by name from ``env.EnvParams``, the one
schema of the world; the types here hold derived values only. The
surrogate and cost functions work elementwise, so one call covers a whole
device population held as arrays. Every simulation draw comes from a named
stream made by ``stream``. The checked helpers, here and in ``wireless``,
test each input with ``least``, one NaN-ignoring numpy reduction; the
budget terms ``wireless.allocate_budgets`` reads are made once an episode,
by ``federation.World``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .env import EnvParams

__all__ = [
    "AdapterSpec",
    "EmulatorSpec",
    "stream",
    "least",
    "emulator_from_retention",
    "final_perplexity",
    "perplexity_step",
    "compute_delay",
    "memory_footprint",
]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Named random stream: one generator per (seed, key) tuple.

    SeedSequence pads short entropy with zeros, so (s, k) and (s, k, 0) name
    the same stream; keys that must differ should differ in a non-zero word.
    """
    return np.random.default_rng(np.random.SeedSequence((seed,) + key))


def least(values) -> float:
    """The least entry of ``values`` (an array or a number) as a float,
    ignoring NaN; inf when empty. So ``least(x) <= 0`` is
    ``(np.asarray(x) <= 0).any()`` in one numpy call, the form the checked
    helpers here and in ``wireless`` use."""
    return np.fmin.reduce(values, axis=None, dtype=float, initial=math.inf)


@dataclass(frozen=True)
class AdapterSpec:
    """The small trainable block; the only weights a device tunes."""

    layer_count: int
    params: int
    bytes: int

    @staticmethod
    def for_model(params: EnvParams) -> "AdapterSpec":
        layers = params.adapter_top_layers + params.adapter_bottom_layers
        frac = layers / params.layer_count
        return AdapterSpec(
            layer_count=layers,
            params=round(frac * params.total_params),
            bytes=round(frac * params.total_bytes),
        )


@dataclass(frozen=True)
class EmulatorSpec:
    """Frozen compressed stand-in for the backbone, parameterized by the
    fraction of droppable layers kept. Counts are whole numbers; fields are
    arrays when built from an array of retentions."""

    retention: float | np.ndarray
    layer_count: float | np.ndarray
    params: float | np.ndarray
    bytes: float | np.ndarray


def _check_retention(retention) -> None:
    r = np.asarray(retention)
    if not ((r > 0.0) & (r <= 1.0)).all():
        raise ValueError(f"retention must be in (0, 1], got {retention}")


def emulator_from_retention(params: EnvParams, adapter: AdapterSpec,
                            retention) -> EmulatorSpec:
    """Build the compressed backbone obtained by keeping ``retention`` of the
    droppable layers (floor-clamped to one layer). Elementwise over an array
    of retentions."""
    _check_retention(retention)
    layers = np.maximum(
        np.rint(retention * (params.layer_count - adapter.layer_count)), 1.0)
    frac = layers / params.layer_count
    return EmulatorSpec(
        retention=retention,
        layer_count=layers,
        params=np.rint(frac * params.total_params),
        bytes=np.rint(frac * params.total_bytes),
    )


def final_perplexity(params: EnvParams, retention):
    """Perplexity the surrogate converges to at a given retention ratio:
    quad_a*r^2 + quad_b*r + quad_c + lora_delta."""
    _check_retention(retention)
    return (params.quad_a * retention ** 2 + params.quad_b * retention
            + params.quad_c + params.lora_delta)


def perplexity_step(perplexity, target, rate: float):
    """One round of local tuning: exponential approach to ``target``."""
    if least(target) <= 0:
        raise ValueError("target perplexity must be positive")
    return target + (perplexity - target) * (1.0 - rate)


def compute_delay(data_size, compute_speed, params, epochs: int):
    """Local fine-tuning time: epochs x samples x params processed (frozen
    emulator plus trainable adapter), divided by the processing speed."""
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    return epochs * data_size * params / compute_speed


def memory_footprint(emulator: EmulatorSpec, adapter: AdapterSpec):
    """Bytes a device must hold to run local tuning."""
    return emulator.bytes + adapter.bytes
