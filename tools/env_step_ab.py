"""Time env episodes of two checkouts in one process, interleaved.

    python3 tools/env_step_ab.py --parent ../parent [--change .] [--repeats 30]

``--parent`` is a checkout of the commit to compare against, for example made
with ``git clone`` and ``git checkout HEAD~1``; ``--change`` defaults to this
checkout. Each checkout's ``src/fedemu`` is imported under its own package
name, so both run in this process and share its heap, caches and CPU state.

For N = 10, 50, 200 and 1000 devices (K = 5, 10, 20 and 50 selected, the
desk, a small, the mid-iterrl and the wide-rollout sizes) and each federation
mode, one 100-round episode of fixed random actions (seed 0; the same raw
branch indices, decoded by each side) is first run on both sides, and every
observation, reward term and round outcome is compared bit for bit. If any
differs the tool prints where and exits 1 without timing anything. Then, per
N, ``--repeats`` pairs of blocks are timed, one block per side, alternating
which side goes first. A block is ``reset`` plus one fedpeat episode, so
work moved between ``reset`` and ``step`` shows. The table gives each side's
median microseconds per step (the block's time over its steps) with
quartiles, the median of the pairs' change/parent ratios (the two blocks of
a pair run back to back, so slow drift of the host cancels in their ratio),
the number of pairs the change is faster, and each side's median minor page
faults per block (``getrusage`` ``ru_minflt``): arrays allocated afresh each
block are faulted in again when the heap gave their pages back. Pin BLAS to
one thread (``OPENBLAS_NUM_THREADS=1``) for stable figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
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
OUTCOME_FIELDS = ("q", "server_q", "perplexities", "server_perplexity",
                  "exchanges_this_round", "payload_bytes", "footprints",
                  "rates")


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


def episode_record(env, actions) -> list[bytes]:
    """Bytes of every observation, reward term and outcome field of one
    episode, in order."""
    record = [env.reset(SEED).tobytes()]
    for action in actions:
        obs, reward, done = env.step(action)
        record.append(obs.tobytes())
        record.append(np.array([reward.r_d, reward.r_p, reward.r_s,
                                reward.penalty, done]).tobytes())
        outcome = env.last_outcome
        record.extend(np.asarray(getattr(outcome, f)).tobytes()
                      for f in OUTCOME_FIELDS)
    return record


def first_difference(a: list[bytes], b: list[bytes]) -> int | None:
    """Index of the first record that differs, or None."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                None if len(a) == len(b) else min(len(a), len(b)))


def time_block(env, actions) -> tuple[float, int]:
    """Microseconds per step of one episode, its reset included, and the
    minor page faults of the block."""
    faults = getrusage(RUSAGE_SELF).ru_minflt
    start = perf_counter()
    env.reset(SEED)
    for action in actions:
        env.step(action)
    elapsed = perf_counter() - start
    return (elapsed / len(actions) * 1e6,
            getrusage(RUSAGE_SELF).ru_minflt - faults)


def summary(values) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args(argv)

    sides = {"parent": load(args.parent.resolve(), "fedemu_ab_parent"),
             "change": load(args.change.resolve(), "fedemu_ab_change")}
    envs, actions = {}, {}
    for n, k in SIZES:
        for mode in MODES:
            records = {}
            for side, module in sides.items():
                env = make_env(module, n, k, mode)
                p = env.params
                acts = [env.decode_branch_actions(*raw) for raw in raw_actions(
                    n, k, p.levels, len(p.retention_grid))]
                records[side] = episode_record(env, acts)
                if mode == "fedpeat":
                    envs[side, n], actions[side, n] = env, acts
            at = first_difference(records["parent"], records["change"])
            if at is not None:
                print(f"N={n} {mode}: outputs differ at record {at}; "
                      "nothing timed")
                return 1
    print("outputs bit-identical at every size and mode")

    print("| N | K | parent us/step | change us/step | pair ratio "
          "| change faster | parent faults | change faults |")
    print("|---|---|---|---|---|---|---|---|")
    for n, k in SIZES:
        times = {"parent": [], "change": []}
        faults = {"parent": [], "change": []}
        gc.collect()
        gc.disable()
        try:
            for rep in range(args.repeats):
                order = ("parent", "change") if rep % 2 == 0 else (
                    "change", "parent")
                for side in order:
                    us, flt = time_block(envs[side, n], actions[side, n])
                    times[side].append(us)
                    faults[side].append(flt)
        finally:
            gc.enable()
        par, chg = times["parent"], times["change"]
        wins = sum(c < p for p, c in zip(par, chg))
        ratio = np.median(np.divide(chg, par))
        print(f"| {n} | {k} | {summary(par)} | {summary(chg)} | {ratio:.3f}x "
              f"| {wins}/{len(par)} | {np.median(faults['parent']):g} "
              f"| {np.median(faults['change']):g} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
