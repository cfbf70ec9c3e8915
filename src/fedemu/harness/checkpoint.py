"""Flat binary checkpointing: one npz of arrays plus a JSON shape manifest.

Array keys are ordered as listed in the manifest: for every actor unit, each
branch net's weight/bias pairs layer by layer, then its ADAM moments; then
every critic bundle (net, moments). RNG stream states and scalar counters live
in the JSON part. Arrays the agent does not hold, such as the critic target
nets that older checkpoints carry, are ignored on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint"]


def _state_arrays(agent) -> dict:
    """Ordered key -> live array map of every learned array of the agent;
    save writes these arrays, restore assigns into them in place."""
    arrays: dict[str, np.ndarray] = {}

    def add_net(prefix, net):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{prefix}/layer{i}/w"] = w
            arrays[f"{prefix}/layer{i}/b"] = b

    def add_opt(prefix, opt):
        for t, (m, v) in enumerate(zip(opt.m, opt.v)):
            arrays[f"{prefix}/m{t}"] = m
            arrays[f"{prefix}/v{t}"] = v

    actors, critics = agent.components()
    for name, unit in actors:
        for j, net in enumerate(unit.nets):
            add_net(f"{name}/net{j}", net)
        add_opt(f"{name}/opt", unit.opt)
    for name, bundle in critics:
        add_net(f"{name}/net", bundle.net)
        add_opt(f"{name}/opt", bundle.opt)
    return arrays


def save_checkpoint(path, agent, *, step: int, episode: int) -> None:
    """Write <path>.npz and <path>.json side by side."""
    path = Path(path)
    arrays = _state_arrays(agent)
    actors, critics = agent.components()
    meta = {
        "opt_steps": {name: part.opt.step for name, part in actors + critics},
        "rng": {name: json.loads(json.dumps(gen.bit_generator.state))
                for name, gen in agent.rng_streams().items()},
        "step": step,
        "episode": episode,
    }
    np.savez(str(path) + ".npz", **arrays)
    manifest = {
        "fields": [{"key": k, "shape": list(arrays[k].shape)} for k in arrays],
        "meta": meta,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_checkpoint(path, agent) -> dict:
    """Restore agent state in place; returns the checkpoint meta. A missing
    array, step or stream state, or an array of another shape or dtype than
    the agent's, raises ValueError naming it before anything is restored."""
    path = Path(path)
    with open(str(path) + ".json") as fh:
        meta = json.load(fh)["meta"]
    arrays = _state_arrays(agent)
    with np.load(str(path) + ".npz") as data:
        saved = {key: data[key] for key in arrays if key in data.files}
    for key, live in arrays.items():
        if key not in saved:
            raise ValueError(f"checkpoint has no array {key}")
        for what in ("shape", "dtype"):
            got, want = getattr(saved[key], what), getattr(live, what)
            if got != want:
                raise ValueError(f"checkpoint array {key} has {what} {got}, "
                                 f"the agent's {want}")
    actors, critics = agent.components()
    streams = agent.rng_streams()
    for part, names in (("opt_steps", dict(actors + critics)),
                        ("rng", streams)):
        if missing := [n for n in names if n not in meta.get(part, ())]:
            raise ValueError(f"checkpoint has no {part}.{missing[0]}")
    for key, live in arrays.items():
        live[...] = saved[key]
    for name, part in actors + critics:
        part.opt.step = meta["opt_steps"][name]
    for name, gen in streams.items():
        gen.bit_generator.state = meta["rng"][name]
    return meta
