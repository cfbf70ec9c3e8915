"""Domain types, analytic surrogates and seeded random streams.

The foundation model is never instantiated; only its size/layer structure is
tracked, and fine-tuning quality is carried by a quadratic perplexity
surrogate. The surrogate and cost functions work elementwise, so one call
covers a whole device population held as arrays. Every simulation draw comes
from a named stream made by ``stream``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSpec",
    "AdapterSpec",
    "EmulatorSpec",
    "PerplexitySurrogate",
    "DeviceProfile",
    "DeviceState",
    "stream",
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


@dataclass(frozen=True)
class ModelSpec:
    """Size/structure of the foundation model being orchestrated."""

    total_params: int
    total_bytes: int
    layer_count: int
    adapter_top_layers: int
    adapter_bottom_layers: int

    def __post_init__(self):
        if self.total_params <= 0 or self.total_bytes <= 0:
            raise ValueError("model params and bytes must be positive")
        if self.adapter_top_layers + self.adapter_bottom_layers >= self.layer_count:
            raise ValueError("adapter layers must leave at least one backbone layer")

    @property
    def adapter_layer_count(self) -> int:
        return self.adapter_top_layers + self.adapter_bottom_layers


@dataclass(frozen=True)
class AdapterSpec:
    """The small trainable block; the only weights a device tunes."""

    layer_count: int
    params: int
    bytes: int

    @staticmethod
    def for_model(model: ModelSpec) -> "AdapterSpec":
        layers = model.adapter_layer_count
        frac = layers / model.layer_count
        return AdapterSpec(
            layer_count=layers,
            params=round(frac * model.total_params),
            bytes=round(frac * model.total_bytes),
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


@dataclass(frozen=True)
class PerplexitySurrogate:
    """Quadratic map from layer retention to final achievable perplexity.

    final value = a*r^2 + b*r + c + lora_delta. ``p_init`` is where device
    perplexities start; ``convergence_rate`` is the per-participation decay
    toward the final value.
    """

    a: float = 25.2
    b: float = -43.1
    c: float = 31.9
    lora_delta: float = -0.78
    p_init: float = 31.9
    convergence_rate: float = 0.08


@dataclass(frozen=True)
class DeviceProfile:
    """Static capabilities of one device (scalars) or of a device
    population (one array entry per device)."""

    memory_capacity: float | np.ndarray  # bytes
    compute_speed: float | np.ndarray    # params processed per second
    data_size: int | np.ndarray          # training samples held locally

    def __post_init__(self):
        for name in ("memory_capacity", "compute_speed", "data_size"):
            if np.any(np.asarray(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must be positive")


@dataclass
class DeviceState:
    """Random-waypoint mobility state of one device, advanced in place by the
    scalar reference ``wireless.step_mobility``; ``waypoint`` is None between
    legs."""

    position: np.ndarray
    waypoint: np.ndarray | None = None
    pause_left: int = 0
    leg_speed: float = 0.0


def _check_retention(retention) -> None:
    r = np.asarray(retention)
    if not ((r > 0.0) & (r <= 1.0)).all():
        raise ValueError(f"retention must be in (0, 1], got {retention}")


def emulator_from_retention(model: ModelSpec, adapter: AdapterSpec,
                            retention) -> EmulatorSpec:
    """Build the compressed backbone obtained by keeping ``retention`` of the
    droppable layers (floor-clamped to one layer). Elementwise over an array
    of retentions."""
    _check_retention(retention)
    layers = np.maximum(np.rint(retention * (model.layer_count - adapter.layer_count)),
                        1.0)
    frac = layers / model.layer_count
    return EmulatorSpec(
        retention=retention,
        layer_count=layers,
        params=np.rint(frac * model.total_params),
        bytes=np.rint(frac * model.total_bytes),
    )


def final_perplexity(s: PerplexitySurrogate, retention):
    """Perplexity the surrogate converges to at a given retention ratio."""
    _check_retention(retention)
    return s.a * retention ** 2 + s.b * retention + s.c + s.lora_delta


def perplexity_step(perplexity, target, rate: float):
    """One round of local tuning: exponential approach to ``target``."""
    if (np.asarray(target) <= 0).any():
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
