"""Training/evaluation driver: seeded runs, metrics CSV, checkpoints.

Run directory layout:
    manifest.json   config snapshot, code version, seed, timestamps, paths,
                    BLAS library and thread count
    metrics.csv     deterministic evaluation curve (schema below)
    timings.csv     wall-clock seconds per optimisation update (not
                    deterministic, hence kept out of metrics.csv)
    rounds.jsonl    round traces from the final evaluation pass, one JSON
                    line per round (``federation.RoundTraceWriter``)
    checkpoint.npz / checkpoint.json   networks, ADAM state, RNG streams

Rounds line keys (one JSON object per round; times in s rounded to 1e-9,
perplexities rounded to 1e-6):
    round, mode       round index in its episode, federation mode
    selection         the K selected device indices, in the action's order
    q, perplexities, exchanges, payload_bytes   K-long, aligned with
                      selection: each selected device's round time,
                      perplexity after the round, emulator exchanges (0 or
                      1) and bytes sent. A device off the selection has zero
                      q, no exchange and no payload, and keeps its
                      perplexity; a reader rebuilds the N-long perplexities
                      from p_init (and N) in the manifest's config at each
                      round 0, carrying them across the episode's lines.
    server_q, server_perplexity   the server's round time and perplexity

Metrics columns (one row per evaluation point, means over eval episodes):
    step        training env steps consumed so far
    eval_reward total reward per episode
    r_d/r_p/r_s/penalty   per-episode sums of the reward components
    perplexity  device-average perplexity at episode end
    log_delay   mean over rounds of ln(max per-device round time, s)
    mean_delay  mean over rounds of max per-device round time, s
    exchanges   emulator exchanges per 10 rounds per device

An evaluation depends only on the config and the agent's parameters: every
evaluation row of a sampling baseline is the same, ``cmd_eval`` reproduces a
run's final row, and a run resumed at a segment and episode boundary writes
the rows of the uninterrupted run. A seed fixes its channel, so the eval env
draws each eval seed's channel at its first reset and keeps it for the run:
one read-only (rounds + 1) x N array of gains per eval seed, which later
episodes on the seed replay. Training draws each episode's whole channel at
its reset too, into one buffer it reuses, and never records.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..agents import (
    FixedFullModelPolicy,
    HappoAgent,
    IterRlAgent,
    RandomPolicy,
    SabppoAgent,
    default_branches,
)
from ..env import AdaptiveFedEnv
from ..federation import RoundTraceWriter
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, config_to_dict

__all__ = [
    "METRICS_COLUMNS",
    "runs_root",
    "pin_blas",
    "build_agent",
    "evaluate",
    "cmd_train",
    "cmd_eval",
]

METRICS_COLUMNS = [
    "step", "eval_reward", "r_d", "r_p", "r_s", "penalty",
    "perplexity", "log_delay", "mean_delay", "exchanges",
]

RUNS_ROOT_ENV = "FEDEMU_RUNS"


def runs_root() -> Path:
    return Path(os.environ.get(RUNS_ROOT_ENV, "runs"))


def _derived_seed(*key) -> int:
    return int(np.random.SeedSequence(tuple(key)).generate_state(1)[0])


def pin_blas() -> dict | str:
    """Set numpy's bundled OpenBLAS to one thread for the rest of the
    process: a product's bits can depend on the thread count, and one thread
    is what every digest and benchmark runs. Returns the library's name,
    version and thread count, or ``"unpinned"`` when no thread setter is
    found."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        symbol = "scipy_openblas_{}_num_threads" + (
            "64_" if "openblas64_" in path.name else "")
        try:
            set_threads = getattr(lib, symbol.format("set"))
            get_threads = getattr(lib, symbol.format("get"))
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads(1)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version"),
                "threads": get_threads()}
    return "unpinned"


def build_agent(config: ExperimentConfig):
    p = config.env
    branches = default_branches(p.n_devices, p.select_k, p.levels,
                                len(p.retention_grid))
    obs_dim = p.observation_dim
    kind = config.agent
    if kind == "sabppo":
        return SabppoAgent(obs_dim, branches, cfg=config.ppo, seed=config.seed)
    if kind == "iterrl":
        return IterRlAgent(obs_dim, branches, cfg=config.ppo, seed=config.seed)
    if kind == "happo":
        return HappoAgent(obs_dim, branches, cfg=config.ppo, seed=config.seed)
    if kind == "random":
        return RandomPolicy(branches, seed=config.seed)
    if kind == "fedft":
        return FixedFullModelPolicy(branches, seed=config.seed)
    raise ValueError(f"unknown agent kind {kind!r}")


def _eval_policy(config: ExperimentConfig, agent):
    """Trainable agents evaluate greedily and draw no randomness; sampling
    baselines get a fresh fixed-seed twin so evaluation never perturbs the
    training stream."""
    if isinstance(agent, RandomPolicy):  # also FixedFullModelPolicy
        return type(agent)(agent.branches, seed=_derived_seed(config.seed, 6))
    return agent


def evaluate(config: ExperimentConfig, agent, env: AdaptiveFedEnv | None = None,
             episodes: int | None = None, trace_path=None) -> dict:
    """Greedy evaluation over fixed per-episode seeds; returns metric means
    and writes the round trace to ``trace_path`` if given. A sampling
    baseline acts through a fixed-seed twin made for each call; ``env``
    replays the channel of a seed it has evaluated before."""
    if episodes is not None and episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    p = config.env
    policy = _eval_policy(config, agent)
    env = env or AdaptiveFedEnv(p)
    episodes = episodes or config.eval_episodes
    totals = {k: [] for k in METRICS_COLUMNS if k != "step"}
    with (open(trace_path, "w") if trace_path is not None
          else contextlib.nullcontext()) as trace_fh:
        trace = RoundTraceWriter(trace_fh) if trace_fh else None
        for ep in range(episodes):
            obs = env.reset(_derived_seed(config.seed, 5, ep), replay=True)
            done = False
            sums = {"reward": 0.0, "r_d": 0.0, "r_p": 0.0, "r_s": 0.0,
                    "penalty": 0.0}
            log_delays, delays, exchanges = [], [], 0
            while not done:
                step_action = policy.act(obs, greedy=True)
                bundle = env.decode_branch_actions(*step_action.branch_actions)
                obs, reward, done = env.step(bundle)
                outcome = env.last_outcome
                sums["reward"] += reward.total
                sums["r_d"] += reward.r_d
                sums["r_p"] += reward.r_p
                sums["r_s"] += reward.r_s
                sums["penalty"] += reward.penalty
                max_q = outcome.max_q
                log_delays.append(np.log(max(max_q, p.delay_floor)))
                delays.append(max_q)
                exchanges += np.count_nonzero(outcome.exchanges_this_round)
                if trace is not None:
                    trace.write(outcome)
            totals["eval_reward"].append(sums["reward"])
            for key in ("r_d", "r_p", "r_s", "penalty"):
                totals[key].append(sums[key])
            totals["perplexity"].append(float(env.last_outcome.perplexities.mean()))
            totals["log_delay"].append(float(np.mean(log_delays)))
            totals["mean_delay"].append(float(np.mean(delays)))
            totals["exchanges"].append(
                exchanges / (p.n_devices * p.rounds / 10.0))
    return {k: float(np.mean(v)) for k, v in totals.items()}


def _format_row(values: dict, step: int) -> str:
    cells = [str(step)]
    for col in METRICS_COLUMNS[1:]:
        cells.append(repr(float(values[col])))
    return ",".join(cells)


@dataclass
class RunResult:
    run_dir: Path
    final_metrics: dict | None
    steps: int


def _write_manifest(run_dir: Path, config: ExperimentConfig,
                    start_time: str, end_time: str | None,
                    blas: dict | str) -> None:
    manifest = {
        "config": config_to_dict(config),
        "code_version": __version__,
        "seed": config.seed,
        "start_time": start_time,
        "end_time": end_time,
        "blas": blas,
        "outputs": {
            "metrics": "metrics.csv",
            "timings": "timings.csv",
            "rounds": "rounds.jsonl",
            "checkpoint": "checkpoint",
        },
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def cmd_train(config: ExperimentConfig, run_dir=None, resume: bool = False) -> RunResult:
    """Train (or replay) the configured agent, appending one metrics row per
    evaluation point. Deterministic given config + seed: BLAS is pinned to
    one thread first (``pin_blas``)."""
    blas = pin_blas()
    if run_dir is None:
        name = config.run_name or f"{config.agent}_{config.env.mode}_s{config.seed}"
        run_dir = runs_root() / name
    run_dir = Path(run_dir)
    if run_dir.exists() and any(run_dir.iterdir()) and not resume:
        raise FileExistsError(
            f"run directory {run_dir} is not empty; pass resume=True to continue")
    run_dir.mkdir(parents=True, exist_ok=True)

    # a run continues only from a checkpoint; without one it starts over
    resuming = resume and (run_dir / "checkpoint.json").exists()
    start_time = time.strftime("%Y-%m-%dT%H:%M:%S")
    if resuming:
        with open(run_dir / "manifest.json") as fh:
            start_time = json.load(fh)["start_time"]
    _write_manifest(run_dir, config, start_time, None, blas)

    env = AdaptiveFedEnv(config.env)
    agent = build_agent(config)
    trainable = hasattr(agent, "make_buffer")
    buffer = agent.make_buffer() if trainable else None

    metrics_path = run_dir / "metrics.csv"
    timings_path = run_dir / "timings.csv"
    ckpt_path = run_dir / "checkpoint"

    step = 0
    episode = 0
    n_updates = 0
    if resuming:
        meta = load_checkpoint(ckpt_path, agent)
        step = meta["step"]
        episode = meta["episode"]
        # update numbers run on from the rows already written
        n_updates = len(timings_path.read_text().splitlines()) - 1
        metrics_fh = open(metrics_path, "a")
        timings_fh = open(timings_path, "a")
    else:
        metrics_fh = open(metrics_path, "w")
        metrics_fh.write(",".join(METRICS_COLUMNS) + "\n")
        timings_fh = open(timings_path, "w")
        timings_fh.write("update,step,seconds\n")

    eval_env = AdaptiveFedEnv(config.env)
    final_metrics = None

    def run_eval(at_step, trace=False):
        nonlocal final_metrics
        row = evaluate(config, agent, env=eval_env,
                       trace_path=run_dir / "rounds.jsonl" if trace else None)
        metrics_fh.write(_format_row(row, at_step) + "\n")
        metrics_fh.flush()
        final_metrics = row

    start_step = step
    try:
        obs = None
        while step < config.total_steps:
            # reset only an episode a step plays, before that step's eval
            if obs is None:
                obs = env.reset(_derived_seed(config.seed, 4, episode))
            # the run that saved the checkpoint evaluated at its step already
            if step % config.eval_interval == 0 and (step > start_step
                                                     or start_step == 0):
                run_eval(step)
            step_action = agent.act(obs)
            bundle = env.decode_branch_actions(*step_action.branch_actions)
            next_obs, reward, done = env.step(bundle)
            if trainable:
                buffer.add(obs, step_action, reward.total, done, next_obs)
                if buffer.full:
                    t0 = time.perf_counter()
                    agent.update(buffer)
                    dt = time.perf_counter() - t0
                    n_updates += 1
                    timings_fh.write(f"{n_updates},{step + 1},{dt:.6f}\n")
                    buffer.clear()
            step += 1
            episode += done
            obs = None if done else next_obs
        if config.total_steps > 0 and (step > start_step or start_step == 0):
            run_eval(step, trace=True)
        save_checkpoint(ckpt_path, agent, step=step, episode=episode)
    finally:
        metrics_fh.close()
        timings_fh.close()

    _write_manifest(run_dir, config, start_time,
                    time.strftime("%Y-%m-%dT%H:%M:%S"), blas)
    return RunResult(run_dir=run_dir, final_metrics=final_metrics, steps=step)


def cmd_eval(run_dir, episodes: int | None = None) -> dict:
    """Evaluate a finished run's checkpoint; writes eval.json and
    rounds.jsonl next to it. BLAS is pinned to one thread first."""
    from .config import config_from_dict

    pin_blas()
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    config = config_from_dict(manifest["config"])
    agent = build_agent(config)
    if (run_dir / "checkpoint.json").exists():
        load_checkpoint(run_dir / "checkpoint", agent)
    row = evaluate(config, agent, episodes=episodes,
                   trace_path=run_dir / "rounds.jsonl")
    with open(run_dir / "eval.json", "w") as fh:
        json.dump(row, fh, indent=1)
    return row
