"""Experiment configuration: YAML file plus dotted-key overrides.

The desk profile keeps runs minutes-scale; the paper profile matches the
full-scale training budget and is opt-in.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

from ..agents import PpoConfig
from ..env import EnvParams

__all__ = [
    "ExperimentConfig",
    "default_config",
    "load_config",
    "save_config",
    "config_to_dict",
    "config_from_dict",
    "apply_overrides",
]

AGENT_KINDS = ("sabppo", "iterrl", "happo", "random", "fedft")

PROFILES = {
    "desk": {"total_steps": 200_000},
    "paper": {"total_steps": 5_000_000},
}


@dataclass(frozen=True)
class ExperimentConfig:
    env: EnvParams = EnvParams()
    ppo: PpoConfig = PpoConfig()
    agent: str = "sabppo"
    total_steps: int = 200_000
    eval_interval: int = 5_000
    eval_episodes: int = 5
    seed: int = 0
    run_name: str = ""

    def __post_init__(self):
        if self.agent not in AGENT_KINDS:
            raise ValueError(f"unknown agent kind {self.agent!r}; "
                             f"expected one of {AGENT_KINDS}")
        if self.total_steps < 0 or self.eval_interval <= 0:
            raise ValueError("total_steps must be >= 0 and eval_interval > 0")
        if self.eval_episodes <= 0:
            raise ValueError("eval_episodes must be positive")
        if self.seed < 0:  # SeedSequence refuses a negative entropy word
            raise ValueError("seed must be >= 0")


def default_config(profile: str = "desk", **overrides) -> ExperimentConfig:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    merged = dict(PROFILES[profile])
    merged.update(overrides)
    return ExperimentConfig(**merged)


def config_to_dict(config: ExperimentConfig) -> dict:
    return dataclasses.asdict(config)


def _fits(value, hint) -> bool:
    """Whether ``value`` has the declared type ``hint``; an int fits a float
    and a list fits a tuple, element by element."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _coerce(cls, data: dict):
    if not isinstance(data, dict):
        raise ValueError(f"expected a mapping for {cls.__name__}, got {type(data)}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _coerce(hint, value)
        elif _fits(value, hint):
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        else:
            expected = hint if typing.get_origin(hint) else hint.__name__
            raise ValueError(f"{cls.__name__}.{name} must be of type "
                             f"{expected}, got {value!r}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    return _coerce(ExperimentConfig, data or {})


def save_config(config: ExperimentConfig, path) -> None:
    import yaml  # only config files need it, so imports of the run skip it
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    import yaml
    with open(path) as fh:
        return config_from_dict(yaml.safe_load(fh))


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``section.key=value`` strings on top of a config; values are
    parsed as YAML scalars/lists."""
    import yaml
    data = config_to_dict(config)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            problem = getattr(exc, "problem", None) or exc
            raise ValueError(f"override {key!r}: {raw!r} is not a YAML "
                             f"value ({problem})") from None
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ValueError(f"unknown config section {part!r} in {key!r}")
            node = node[part]
        if parts[-1] not in node:
            raise ValueError(f"unknown config key {key!r}")
        node[parts[-1]] = value
    return config_from_dict(data)
