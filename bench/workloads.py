"""Benchmark workloads: each maps a seed to an ExperimentConfig mapping.

The program only sees the generated config; the seed is the benchmark's.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    why: str
    agent: str
    n_devices: int
    select_k: int
    total_steps: int
    eval_interval: int


WORKLOADS = {
    # The desk profile evaluates 5 episodes every 5000 steps: one greedy eval
    # step per ten training steps. Scaled to the run: 1 episode every 1000.
    "desk-sabppo": Workload(
        why="the paper's SABPPO controller at desk size; act, env.step and "
            "update each take about a third of a step, plus eval and checkpoint",
        agent="sabppo", n_devices=10, select_k=5,
        total_steps=3000, eval_interval=1000),
    "wide-rollout": Workload(
        why="random policy over 1000 devices: env.step is ~90% of a step, no "
            "network or update work; the round simulation shows here alone",
        agent="random", n_devices=1000, select_k=50,
        total_steps=400, eval_interval=400),
    "mid-iterrl": Workload(
        why="IterRL at N=200: four actor/critic pairs update on 1280-row "
            "head batches, about 45% of a step, unlike SABPPO's joint update",
        agent="iterrl", n_devices=200, select_k=20,
        total_steps=1000, eval_interval=1000),
}


def workload_config(name: str, seed: int, quick: bool = False) -> dict:
    """Config mapping for ``fedemu.harness.config.config_from_dict``.

    ``quick`` keeps the population size but cuts episodes to 10 rounds and
    the run to two 10-step segments, for the benchmark's self-tests.
    """
    w = WORKLOADS[name]
    config = {
        "agent": w.agent,
        "seed": seed,
        "total_steps": w.total_steps,
        "eval_interval": w.eval_interval,
        "eval_episodes": 1,
        "env": {"n_devices": w.n_devices, "select_k": w.select_k},
    }
    if quick:
        config.update(total_steps=20, eval_interval=10)
        config["env"]["rounds"] = 10
        config["ppo"] = {"segment": 10, "minibatch": 5}
    return config
