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
    q, perplexities, exchanges, payload_bytes   K-long and aligned with
                      selection, as ``federation.RoundOutcome`` holds them:
                      each selected device's round time, perplexity after
                      the round, emulator exchanges (0 or 1) and bytes sent.
                      Other devices take no time, exchange nothing, are
                      sent nothing and keep their perplexity; a reader carries
                      the N-long perplexities across an episode's lines from
                      p_init (and N) in the manifest's config at each round 0.
    server_q, server_perplexity   the server's round time and perplexity

Metrics columns (one row per evaluation point, means over eval episodes):
    step        training env steps consumed so far
    eval_reward total reward per episode
    r_d/r_p/r_s/penalty   per-episode sums of the reward components
    perplexity  device-average perplexity at episode end
    log_delay   mean over rounds of ln(max per-device round time, s)
    mean_delay  mean over rounds of max per-device round time, s
    exchanges   emulator exchanges per 10 rounds per device

Training is a loop over three phases of one ``RunState``, which holds the
envs, the agent and its buffer, the open metrics and timings files, the
step, episode and update counts, the current observation, whether the last
step ended its episode (so the next one resets) and the last step evaluated:
    collect   training steps (reset, act, decode, step, add) until the
              buffer is full, an eval point or the end
    update    one agent update on the full buffer, one timings.csv row
    evaluate  one metrics row; the row at the end also writes rounds.jsonl
Eval points are every eval_interval-th step and, if total_steps > 0, the
end. At one step the update comes first, then the reset of an episode the
step starts, then the evaluation. A resumed run restarts its checkpoint's
episode, and skips the row at its step if past 0: the saving run wrote it.

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
from .config import ExperimentConfig, config_from_dict, config_to_dict

__all__ = ["METRICS_COLUMNS", "runs_root", "pin_blas", "build_agent",
           "evaluate", "RunState", "cmd_train", "cmd_eval"]

METRICS_COLUMNS = [
    "step", "eval_reward", "r_d", "r_p", "r_s", "penalty",
    "perplexity", "log_delay", "mean_delay", "exchanges",
]


def runs_root() -> Path:
    return Path(os.environ.get("FEDEMU_RUNS", "runs"))


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


_LEARNERS = {"sabppo": SabppoAgent, "iterrl": IterRlAgent, "happo": HappoAgent}
_BASELINES = {"random": RandomPolicy, "fedft": FixedFullModelPolicy}


def build_agent(config: ExperimentConfig):
    p = config.env
    branches = default_branches(p.n_devices, p.select_k, p.levels,
                                len(p.retention_grid))
    kind = config.agent
    if kind in _LEARNERS:
        return _LEARNERS[kind](p.observation_dim, branches, cfg=config.ppo,
                               seed=config.seed)
    if kind in _BASELINES:
        return _BASELINES[kind](branches, seed=config.seed)
    raise ValueError(f"unknown agent kind {kind!r}")


def evaluate(config: ExperimentConfig, agent, env: AdaptiveFedEnv | None = None,
             episodes: int | None = None, trace_path=None) -> dict:
    """Greedy evaluation over fixed per-episode seeds; returns metric means
    and writes the round trace to ``trace_path`` if given. A learner draws no
    randomness here; a sampling baseline acts through a fixed-seed twin made
    for each call, so evaluation never moves its training stream. ``env``
    replays the channel of a seed it has evaluated before."""
    if episodes is not None and episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    p = config.env
    policy = (type(agent)(agent.branches, seed=_derived_seed(config.seed, 6))
              if isinstance(agent, RandomPolicy) else agent)  # fedft's too
    env = env or AdaptiveFedEnv(p)
    episodes = episodes or config.eval_episodes
    totals = {k: [] for k in METRICS_COLUMNS if k != "step"}
    with (open(trace_path, "w") if trace_path is not None
          else contextlib.nullcontext()) as trace_fh:
        trace = RoundTraceWriter(trace_fh) if trace_fh else None
        for ep in range(episodes):
            obs = env.reset(_derived_seed(config.seed, 5, ep), replay=True)
            done = False
            sums = {k: 0.0 for k in ("total", "r_d", "r_p", "r_s", "penalty")}
            log_delays, delays, exchanges = [], [], 0
            while not done:
                step_action = policy.act(obs, greedy=True)
                bundle = env.decode_branch_actions(*step_action.branch_actions)
                obs, reward, done = env.step(bundle)
                outcome = env.last_outcome
                for key in sums:
                    sums[key] += getattr(reward, key)
                max_q = outcome.max_q
                log_delays.append(np.log(max(max_q, p.delay_floor)))
                delays.append(max_q)
                exchanges += np.count_nonzero(outcome.exchanges_this_round)
                if trace is not None:
                    trace.write(outcome)
            totals["eval_reward"].append(sums.pop("total"))
            for key, value in sums.items():
                totals[key].append(value)
            totals["perplexity"].append(float(env.world.perplexity.mean()))
            totals["log_delay"].append(float(np.mean(log_delays)))
            totals["mean_delay"].append(float(np.mean(delays)))
            totals["exchanges"].append(
                exchanges / (p.n_devices * p.rounds / 10.0))
    return {k: float(np.mean(v)) for k, v in totals.items()}


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
        "outputs": {"metrics": "metrics.csv", "timings": "timings.csv",
                    "rounds": "rounds.jsonl", "checkpoint": "checkpoint"},
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


@dataclass
class RunState:
    """What a training run carries between its phases (module docstring)."""

    config: ExperimentConfig
    rounds_path: Path  # rounds.jsonl, which the evaluation at the end writes
    env: AdaptiveFedEnv
    eval_env: AdaptiveFedEnv
    agent: object
    buffer: object  # the learner's TrajectoryBuffer; None for a baseline
    metrics_fh: object
    timings_fh: object
    step: int = 0
    episode: int = 0
    n_updates: int = 0
    evaluated: int | None = None
    obs: np.ndarray | None = None
    done: bool = True  # the last step ended its episode, or none ran yet
    final_metrics: dict | None = None

    def eval_due(self) -> bool:
        step, total = self.step, self.config.total_steps
        return step != self.evaluated and (
            step % self.config.eval_interval == 0 if step < total
            else step == total > 0)

    def collect(self):
        """Play training steps until the buffer is full, an eval point or the
        end; returns the phase that comes next, None when the run is done."""
        config, env, buffer = self.config, self.env, self.buffer
        while self.step < config.total_steps:
            if self.done:  # this step starts an episode
                seed = _derived_seed(config.seed, 4, self.episode)
                self.obs, self.done = env.reset(seed), False
            if self.eval_due():
                return self.evaluate
            step_action = self.agent.act(self.obs)
            bundle = env.decode_branch_actions(*step_action.branch_actions)
            next_obs, reward, done = env.step(bundle)
            if buffer is not None:
                buffer.add(self.obs, step_action, reward.total, done, next_obs)
            self.step += 1
            self.episode += done
            self.obs, self.done = next_obs, done
            if buffer is not None and buffer.full:
                return self.update
        return self.evaluate if self.eval_due() else None

    def update(self) -> None:
        t0 = time.perf_counter()
        self.agent.update(self.buffer)
        dt = time.perf_counter() - t0
        self.n_updates += 1
        self.timings_fh.write(f"{self.n_updates},{self.step},{dt:.6f}\n")
        self.buffer.clear()

    def evaluate(self) -> None:
        end = self.step == self.config.total_steps
        row = evaluate(self.config, self.agent, env=self.eval_env,
                       trace_path=self.rounds_path if end else None)
        cells = [repr(float(row[col])) for col in METRICS_COLUMNS[1:]]
        self.metrics_fh.write(",".join([str(self.step), *cells]) + "\n")
        self.metrics_fh.flush()
        self.evaluated, self.final_metrics = self.step, row


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

    agent = build_agent(config)
    buffer = agent.make_buffer() if hasattr(agent, "make_buffer") else None
    meta = (load_checkpoint(run_dir / "checkpoint", agent) if resuming
            else {"step": 0, "episode": 0})
    timings_path = run_dir / "timings.csv"
    # update numbers run on from the rows already written
    n_updates = (len(timings_path.read_text().splitlines()) - 1
                 if resuming else 0)
    mode = "a" if resuming else "w"
    with (open(run_dir / "metrics.csv", mode) as metrics_fh,
          open(timings_path, mode) as timings_fh):
        if not resuming:
            metrics_fh.write(",".join(METRICS_COLUMNS) + "\n")
            timings_fh.write("update,step,seconds\n")
        # a checkpoint past step 0 was saved after its step's metrics row
        run = RunState(config, run_dir / "rounds.jsonl",
                       AdaptiveFedEnv(config.env), AdaptiveFedEnv(config.env),
                       agent, buffer, metrics_fh, timings_fh,
                       meta["step"], meta["episode"], n_updates,
                       evaluated=meta["step"] or None)
        while phase := run.collect():  # run.update or run.evaluate
            phase()
        save_checkpoint(run_dir / "checkpoint", agent, step=run.step,
                        episode=run.episode)

    _write_manifest(run_dir, config, start_time,
                    time.strftime("%Y-%m-%dT%H:%M:%S"), blas)
    return RunResult(run_dir=run_dir, final_metrics=run.final_metrics,
                     steps=run.step)


def cmd_eval(run_dir, episodes: int | None = None) -> dict:
    """Evaluate a finished run's checkpoint; writes eval.json and
    rounds.jsonl next to it. BLAS is pinned to one thread first."""
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
