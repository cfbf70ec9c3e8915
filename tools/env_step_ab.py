"""Time env episodes of two checkouts in one process, interleaved.

    python3 tools/env_step_ab.py --parent ../parent [--change .] [--repeats 30]

``--parent`` is a checkout of the commit to compare against, for example made
with ``git clone`` and ``git checkout HEAD~1``; ``--change`` defaults to this
checkout. Each checkout's ``src/fedemu`` is imported under its own package
name, so both run in this process and share its heap, caches and CPU state.

For N = 10, 50, 200 and 1000 devices (K = 5, 10, 20 and 50 selected, the
desk, a small, the mid-iterrl and the wide-rollout sizes) and each federation
mode, one 100-round training episode of fixed random actions (seed 0; the
same raw branch indices, each step decoded by ``decode_branch_actions`` and
stepped) is first run on both sides.
For fedpeat, a second env then runs the same episode twice with
``reset(seed, replay=True)``: once recording the seed's channel, as an eval
env's first episode on a seed does, and once replaying it. On that env each
side's ``SabppoAgent`` (seed 0, the same nets on both sides) then drives a
greedy episode, as ``evaluate`` does: ``act(obs, greedy=True)``, decode and
step. On the training env each side's ``RandomPolicy`` (seed 0) then drives
a training episode, as ``cmd_train`` does for the random baseline: ``act``,
decode and step. Every observation, reward term and round outcome of each
episode, and every greedy and sampled action, is compared bit for bit. Each side's
``RoundTraceWriter`` then writes the greedy episode's round outcomes into a
``StringIO``, and the two texts are compared byte for byte. If anything
differs the tool prints where and exits 1 without timing anything. So it
refuses a parent that writes another line layout, such as one with an
N-long ``perplexities`` list; time two such writers in one process instead.

Then, per N, ``--repeats`` pairs of blocks of each kind (training, recorded,
replayed, greedy, sampling) are timed, one block per side, alternating which
side goes first. A block is ``reset`` plus one fedpeat episode, each step
decoding its raw branch indices (a greedy block: the agent's greedy ones; a
sampling block: the policy's draws, which go on along its stream from block
to block, alike on both sides) and stepping,
so work moved between ``reset``, ``act``, the decode and ``step`` shows;
before a recorded block the env forgets the seed's channel. The first table
gives, for training blocks, each side's
median microseconds per step (the block's time over its steps) with
quartiles, the median of the pairs' change/parent ratios (the two blocks of
a pair run back to back, so slow drift of the host cancels in their ratio),
the number of pairs the change is faster, each side's median minor page
faults per block (``getrusage`` ``ru_minflt``): arrays allocated afresh each
block are faulted in again when the heap gave their pages back, and each
side's median microseconds per ``World.advance_channel`` call, timed inside
the same blocks, so a change to the channel draw reads apart from the rest
of the round. The second table gives the same time, ratio, win and fault
figures for recorded and replayed blocks. The third gives them for greedy
and sampling blocks, and with them each side's median microseconds per
``act`` call,
timed inside the same blocks, the median of the pairs' ratios of the
blocks' median ``act`` times and the number of pairs whose ``act`` is faster
on the change side. The fourth gives, per N, each side's median
microseconds per trace line (a block is a new writer writing the recorded
greedy episode's lines into a new ``StringIO``; its time over its lines)
with quartiles, the median of the pairs' ratios and the number of pairs the
change is faster. Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``) for
stable figures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import importlib.util
import io
import sys
from pathlib import Path
from resource import RUSAGE_SELF, getrusage
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = ((10, 5), (50, 10), (200, 20), (1000, 50))
MODES = ("fedpeat", "fedpeft", "fedft")
ROUNDS = 100
SEED = 0
BLOCKS = ("training", "recorded", "replayed", "greedy", "sampling")
AGENT_BLOCKS = ("greedy", "sampling")
OUTCOME_FIELDS = ("q", "server_q", "max_q", "perplexities",
                  "server_perplexity", "exchanges_this_round",
                  "payload_bytes", "footprints", "rates")


def load(checkout: Path, name: str):
    """Import ``<checkout>/src/fedemu`` as package ``name``; returns its
    ``env`` module."""
    init = checkout / "src" / "fedemu" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return sys.modules[f"{name}.env"]


def raw_actions(n: int, k: int, levels: int, grid: int) -> list[tuple]:
    """ROUNDS fixed random branch index groups, drawn without either side."""
    rng = np.random.default_rng(SEED)
    return [(rng.permutation(n)[:k], rng.integers(0, levels, k),
             rng.integers(0, levels, k), rng.integers(0, grid, k))
            for _ in range(ROUNDS)]


def make_env(env_module, n: int, k: int, mode: str):
    params = dataclasses.replace(env_module.EnvParams(), n_devices=n,
                                 select_k=k, rounds=ROUNDS, mode=mode)
    return env_module.AdaptiveFedEnv(params)


def make_agents(env) -> dict:
    """The ``SabppoAgent`` of the greedy block and the ``RandomPolicy`` of
    the sampling block (each seed ``SEED``) of ``env``'s checkout and
    size."""
    agents = importlib.import_module(
        type(env).__module__.rpartition(".")[0] + ".agents")
    p = env.params
    branches = agents.default_branches(p.n_devices, p.select_k, p.levels,
                                       len(p.retention_grid))
    return {"greedy": agents.SabppoAgent(p.observation_dim, branches,
                                         seed=SEED),
            "sampling": agents.RandomPolicy(branches, seed=SEED)}


def episode_record(env, actions, replay=False, agent=None,
                   outcomes=None) -> list[bytes]:
    """Bytes of every observation, reward term and outcome field of one
    episode of ``len(actions)`` rounds, in order. Each round steps its raw
    branch index groups from ``actions``, or with an ``agent`` the agent's
    own, greedy on a replayed episode, whose bytes are recorded too. Each
    round's outcome is appended to ``outcomes`` if given."""
    obs = env.reset(SEED, replay=replay)
    record = [obs.tobytes()]
    for raw in actions:
        if agent is not None:
            raw = agent.act(obs, greedy=replay).branch_actions
            record.extend(a.tobytes() for a in raw)
        obs, reward, done = env.step(env.decode_branch_actions(*raw))
        record.append(obs.tobytes())
        record.append(np.array([reward.r_d, reward.r_p, reward.r_s,
                                reward.penalty, done]).tobytes())
        outcome = env.last_outcome
        record.extend(np.asarray(getattr(outcome, f)).tobytes()
                      for f in OUTCOME_FIELDS)
        if outcomes is not None:
            outcomes.append(outcome)
    return record


def trace_text(writer_class, outcomes) -> str:
    """The lines a new ``writer_class`` writes for ``outcomes``."""
    buf = io.StringIO()
    writer = writer_class(buf)
    for outcome in outcomes:
        writer.write(outcome)
    return buf.getvalue()


def first_difference(a: list[bytes], b: list[bytes]) -> int | None:
    """Index of the first record that differs, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                None if len(a) == len(b) else min(len(a), len(b)))


def time_block(env, actions, block="training") -> tuple[float, int]:
    """Microseconds per step of one episode of kind ``block`` over raw
    branch index groups ``actions``, its reset and every decode included,
    and the minor page faults of the block."""
    if block == "recorded":
        env._channels.clear()  # record the seed's channel again
    faults = getrusage(RUSAGE_SELF).ru_minflt
    start = perf_counter()
    env.reset(SEED, replay=block != "training")
    for raw in actions:
        env.step(env.decode_branch_actions(*raw))
    elapsed = perf_counter() - start
    return (elapsed / len(actions) * 1e6,
            getrusage(RUSAGE_SELF).ru_minflt - faults)


def time_agent(env, agent, sink: list, greedy=True) -> tuple[float, int]:
    """Microseconds per step of one agent block, ``reset(SEED,
    replay=greedy)`` plus an episode of ``agent``'s actions (greedy ones if
    ``greedy``), each decoded and stepped, and the minor page faults of the
    block; appends the microseconds of every ``act`` call to ``sink``."""
    faults = getrusage(RUSAGE_SELF).ru_minflt
    start = perf_counter()
    obs, done, steps = env.reset(SEED, replay=greedy), False, 0
    while not done:
        at = perf_counter()
        raw = agent.act(obs, greedy=greedy).branch_actions
        sink.append((perf_counter() - at) * 1e6)
        obs, _, done = env.step(env.decode_branch_actions(*raw))
        steps += 1
    elapsed = perf_counter() - start
    return (elapsed / steps * 1e6,
            getrusage(RUSAGE_SELF).ru_minflt - faults)


def time_trace(writer_class, outcomes) -> float:
    """Microseconds per line of one trace block: a new ``writer_class``
    writing every outcome of ``outcomes`` into a new ``StringIO``."""
    start = perf_counter()
    trace_text(writer_class, outcomes)
    return (perf_counter() - start) / len(outcomes) * 1e6


@contextlib.contextmanager
def timed_draws(world_class, sink: list):
    """Within the block, append the microseconds of every
    ``world_class.advance_channel`` call to ``sink``."""
    advance = world_class.advance_channel

    def timed(world, *args, **kwargs):
        start = perf_counter()
        gains = advance(world, *args, **kwargs)
        sink.append((perf_counter() - start) * 1e6)
        return gains

    world_class.advance_channel = timed
    try:
        yield
    finally:
        world_class.advance_channel = advance


def summary(values) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def pair_cells(par, chg) -> str:
    """Each side's summary, the median of the pairs' change/parent ratios
    and the pairs the change is faster, as table cells."""
    ratio = np.median(np.divide(chg, par))
    wins = sum(c < p for p, c in zip(par, chg))
    return f"{summary(par)} | {summary(chg)} | {ratio:.3f}x | {wins}/{len(par)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args(argv)

    sides = {"parent": load(args.parent.resolve(), "fedemu_ab_parent"),
             "change": load(args.change.resolve(), "fedemu_ab_change")}
    writers = {side: importlib.import_module(
        module.__name__.rpartition(".")[0] + ".federation").RoundTraceWriter
        for side, module in sides.items()}
    envs, actions, agents, outcomes = {}, {}, {}, {}
    for n, k in SIZES:
        p = sides["change"].EnvParams()
        acts = actions[n] = raw_actions(n, k, p.levels, len(p.retention_grid))
        for mode in MODES:
            records = {}
            for side, module in sides.items():
                env = make_env(module, n, k, mode)
                records["training", side] = episode_record(env, acts)
                if mode == "fedpeat":
                    eval_env = make_env(module, n, k, mode)
                    agents[side, n] = make_agents(eval_env)
                    outcomes[side, n] = []
                    for block in ("recorded", "replayed", "greedy"):
                        greedy = block == "greedy"
                        records[block, side] = episode_record(
                            eval_env, acts, replay=True,
                            agent=agents[side, n][block] if greedy else None,
                            outcomes=outcomes[side, n] if greedy else None)
                    records["sampling", side] = episode_record(
                        env, acts, agent=agents[side, n]["sampling"])
                    envs[side, n] = {"training": env, "recorded": eval_env,
                                     "replayed": eval_env, "greedy": eval_env,
                                     "sampling": env}
            for block in BLOCKS:
                if (block, "parent") not in records:
                    continue
                at = first_difference(records[block, "parent"],
                                      records[block, "change"])
                if at is not None:
                    print(f"N={n} {mode} {block}: outputs differ at record "
                          f"{at}; nothing timed")
                    return 1
        lines = [trace_text(writers[side], outcomes[side, n])
                 .splitlines(keepends=True) for side in sides]
        at = first_difference(*lines)
        if at is not None:
            print(f"N={n} fedpeat trace: lines differ at line {at}; "
                  "nothing timed")
            return 1
    print("outputs bit-identical at every size and mode, recorded, "
          "replayed, greedy and sampling episodes and their trace lines "
          "included")

    rows, agent_rows, trace_rows = [], [], []
    print("| N | K | parent us/step | change us/step | pair ratio "
          "| change faster | parent faults | change faults "
          "| parent us/advance_channel | change us/advance_channel |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for n, k in SIZES:
        times = {(b, side): [] for b in BLOCKS for side in sides}
        faults = {(b, side): [] for b in BLOCKS for side in sides}
        draws = {"parent": [], "change": []}
        acts = {key: [] for key in times if key[0] in AGENT_BLOCKS}
        act_medians = {key: [] for key in acts}
        lines = {"parent": [], "change": []}
        gc.collect()
        gc.disable()
        try:
            for rep in range(args.repeats):
                order = ("parent", "change") if rep % 2 == 0 else (
                    "change", "parent")
                for block in BLOCKS:
                    for side in order:
                        env = envs[side, n][block]
                        if block in AGENT_BLOCKS:
                            sink = []
                            us, flt = time_agent(env, agents[side, n][block],
                                                 sink, block == "greedy")
                            acts[block, side] += sink
                            act_medians[block, side].append(np.median(sink))
                        else:
                            with (timed_draws(sides[side].World, draws[side])
                                  if block == "training"
                                  else contextlib.nullcontext()):
                                us, flt = time_block(env, actions[n], block)
                        times[block, side].append(us)
                        faults[block, side].append(flt)
                for side in order:
                    lines[side].append(
                        time_trace(writers[side], outcomes[side, n]))
        finally:
            gc.enable()
        cells = {}
        for block in BLOCKS:
            cells[block] = (
                f"{pair_cells(times[block, 'parent'], times[block, 'change'])} "
                f"| {np.median(faults[block, 'parent']):g} "
                f"| {np.median(faults[block, 'change']):g}")
        print(f"| {n} | {k} | {cells['training']} "
              f"| {np.median(draws['parent']):.1f} "
              f"| {np.median(draws['change']):.1f} |")
        rows += [f"| {n} | {k} | {block} | {cells[block]} |"
                 for block in ("recorded", "replayed")]
        for block in AGENT_BLOCKS:
            par = act_medians[block, "parent"]
            chg = act_medians[block, "change"]
            agent_rows.append(
                f"| {n} | {k} | {block} | {cells[block]} "
                f"| {np.median(acts[block, 'parent']):.1f} "
                f"| {np.median(acts[block, 'change']):.1f} "
                f"| {np.median(np.divide(chg, par)):.3f}x "
                f"| {sum(c < p for p, c in zip(par, chg))}/{len(par)} |")
        trace_rows.append(
            f"| {n} | {k} | {pair_cells(lines['parent'], lines['change'])} |")

    print()
    print("| N | K | episode | parent us/step | change us/step | pair ratio "
          "| change faster | parent faults | change faults |")
    print("|---|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))

    print()
    print("| N | K | episode | parent us/step | change us/step | pair ratio "
          "| change faster | parent faults | change faults "
          "| parent us/act | change us/act | act pair ratio | act faster |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    print("\n".join(agent_rows))

    print()
    print("| N | K | parent us/line | change us/line | pair ratio "
          "| change faster |")
    print("|---|---|---|---|---|---|")
    print("\n".join(trace_rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
