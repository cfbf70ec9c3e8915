"""Compare the outputs of fixed training runs between two checkouts.

    python3 tools/output_digests.py --parent ../parent [--change .]

``--parent`` is a checkout of the commit to compare against, for example made
with ``git clone`` and ``git checkout HEAD~1``; ``--change`` defaults to this
checkout. Each checkout runs the fixed configs through ``cmd_train`` in one
child process with that checkout's ``src`` first on the path and BLAS pinned
to one thread. Then the sha256 of ``metrics.csv``, ``rounds.jsonl``,
``checkpoint.npz``, ``checkpoint.json`` and ``eval.json`` of every run is
compared. Where ``checkpoint.npz`` differs, the line also gives the number of
differing arrays and the largest ratio of an array's largest change to its
largest parent entry, which tells rounding from a real change.

The fixed configs are the tiny config (seed 3, N=4, K=2, 5 rounds, 20 steps,
eval every 10, segment 10, minibatch 5) for all five agent kinds in all three
federation modes; the tiny fedpeat config with every device selected (N=K=5)
for sabppo and random, which covers the full-sort path of the selection
top-k and a selection head with no unchosen logits; the tiny fedpeat config
with an unsorted retention grid that repeats a value (0.75, 0.25, 1.0,
0.25) and with zero local epochs, for sabppo and random, which cover the
round's retention lookup and its no-tuning branch; a multi-update config
(seed 5, N=30, K=5, 20 rounds, 150 steps, eval every 50, segment 25,
minibatch 8), whose six updates each start from the critic the last one
trained, for the three learners; a long-episode config (seed 7, N=30, K=5,
47 rounds, 120 steps, eval every 40, segment 30, minibatch 10) for sabppo
and random, whose channels the env draws in two full ``env.CHUNK``-round
slices and a short one, and whose training stops mid-episode; and the
three benchmark workloads on seed 2. The eval runs evaluate the tiny sabppo
run in fedpeat mode, the long-episode sabppo run and the wide-rollout run.
All of them take about 15 s per checkout on a 2-vCPU host.

Prints one line per run, then the number of runs that are identical, then
each checkout's ``src/`` line count (newlines in every ``*.py`` under
``src/``, as ``wc -l`` counts them), and exits 1 if any digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

OUTPUTS = ("metrics.csv", "rounds.jsonl", "checkpoint.npz", "checkpoint.json",
           "eval.json")
AGENTS = ("sabppo", "iterrl", "happo", "random", "fedft")
LEARNERS = ("sabppo", "iterrl", "happo")
MODES = ("fedpeat", "fedpeft", "fedft")
BENCH_SEED = 2

# Runs every config of a JSON mapping {name: config} into <out>/<name>, then
# evaluates a copy of each finished run of a mapping {name: trained run} in
# <out>/<name>.
CHILD = """
import json, shutil, sys
from pathlib import Path
import fedemu
from fedemu.harness.config import config_from_dict
from fedemu.harness.run import cmd_eval, cmd_train
src, out = Path(sys.argv[1]), Path(sys.argv[4])
configs, evals = json.loads(sys.argv[2]), json.loads(sys.argv[3])
if Path(fedemu.__file__).resolve().parent.parent != src.resolve():
    sys.exit(f"fedemu was imported from {fedemu.__file__}, not from {src}")
for name, config in configs.items():
    cmd_train(config_from_dict(config), run_dir=out / name)
for name, trained in evals.items():
    shutil.copytree(out / trained, out / name)
    cmd_eval(out / name)
"""


def fixed_configs() -> dict[str, dict]:
    """Config mappings by run name, in the order they run."""
    configs = {}
    for mode in MODES:
        for agent in AGENTS:
            configs[f"tiny-{agent}-{mode}"] = {
                "agent": agent, "seed": 3, "total_steps": 20,
                "eval_interval": 10,
                "env": {"n_devices": 4, "select_k": 2, "rounds": 5,
                        "mode": mode},
                "ppo": {"segment": 10, "minibatch": 5}}
    for agent in ("sabppo", "random"):
        config = json.loads(json.dumps(configs[f"tiny-{agent}-fedpeat"]))
        config["env"].update(n_devices=5, select_k=5)
        configs[f"all-selected-{agent}"] = config
    for agent in ("sabppo", "random"):
        for name, env in (("grid-unsorted", {"retention_grid": [
                0.75, 0.25, 1.0, 0.25]}), ("zero-epochs", {"local_epochs": 0})):
            config = json.loads(json.dumps(configs[f"tiny-{agent}-fedpeat"]))
            config["env"].update(env)
            configs[f"{name}-{agent}"] = config
    for agent in LEARNERS:
        configs[f"multi-update-{agent}"] = {
            "agent": agent, "seed": 5, "total_steps": 150, "eval_interval": 50,
            "env": {"n_devices": 30, "select_k": 5, "rounds": 20},
            "ppo": {"segment": 25, "minibatch": 8}}
    for agent in ("sabppo", "random"):
        configs[f"long-episode-{agent}"] = {
            "agent": agent, "seed": 7, "total_steps": 120, "eval_interval": 40,
            "env": {"n_devices": 30, "select_k": 5, "rounds": 47},
            "ppo": {"segment": 30, "minibatch": 10}}
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    for name in workloads["WORKLOADS"]:
        configs[f"{name}-s{BENCH_SEED}"] = workloads["workload_config"](
            name, BENCH_SEED)
    return configs


def eval_runs() -> dict[str, str]:
    """Trained run each eval run copies and evaluates, by eval run name."""
    return {"eval-tiny-sabppo-fedpeat": "tiny-sabppo-fedpeat",
            "eval-long-episode-sabppo": "long-episode-sabppo",
            f"eval-wide-rollout-s{BENCH_SEED}": f"wide-rollout-s{BENCH_SEED}"}


def run_configs(checkout: Path, configs: dict[str, dict],
                evals: dict[str, str], out: Path) -> None:
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), json.dumps(configs),
         json.dumps(evals), str(out)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runs in {checkout} failed:\n"
                           f"{proc.stdout}{proc.stderr}")


def digests(run_dir: Path) -> dict[str, str | None]:
    """sha256 of each output file of a run; None where the file is absent."""
    return {name: (hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                   if (run_dir / name).exists() else None)
            for name in OUTPUTS}


def compare(parent: dict, change: dict) -> list[str]:
    """Names of the output files whose digests differ."""
    return [name for name in OUTPUTS if parent[name] != change[name]]


def npz_differences(parent: Path, change: Path) -> tuple[int, float]:
    """(arrays that differ, largest max|change| / max|parent array| over
    them) between two ``.npz`` files; an array missing on one side or
    reshaped counts with an infinite ratio."""
    count, worst = 0, 0.0
    with np.load(parent) as old, np.load(change) as new:
        for key in sorted(set(old.files) | set(new.files)):
            a = old[key] if key in old.files else None
            b = new[key] if key in new.files else None
            if a is None or b is None or a.shape != b.shape:
                count, worst = count + 1, math.inf
            elif not np.array_equal(a, b):
                count += 1
                scale = float(np.max(np.abs(a)))
                delta = float(np.max(np.abs(b - a)))
                worst = max(worst, delta / scale if scale else math.inf)
    return count, worst


def src_lines(checkout: Path) -> int:
    """Lines of every ``*.py`` under the checkout's ``src/``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    args = ap.parse_args(argv)

    configs = fixed_configs()
    evals = eval_runs()
    runs = [*configs, *evals]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differing = 0
    with tempfile.TemporaryDirectory() as work:
        for side, checkout in sides.items():
            run_configs(checkout, configs, evals, Path(work) / side)
        for name in runs:
            want = digests(Path(work) / "parent" / name)
            got = digests(Path(work) / "change" / name)
            bad = compare(want, got)
            differing += bool(bad)
            if bad:
                line = f"{name}: DIFFERS in " + ", ".join(
                    f"{f} ({str(want[f])[:12]} -> {str(got[f])[:12]})"
                    for f in bad)
                if "checkpoint.npz" in bad and None not in (
                        want["checkpoint.npz"], got["checkpoint.npz"]):
                    count, ratio = npz_differences(
                        Path(work) / "parent" / name / "checkpoint.npz",
                        Path(work) / "change" / name / "checkpoint.npz")
                    line += (f"; checkpoint.npz: {count} arrays differ, "
                             f"largest relative change {ratio:.2g}")
                print(line)
            else:
                print(f"{name}: identical " + " ".join(
                    f"{f}={str(got[f])[:12]}" for f in OUTPUTS))
    print(f"{len(runs) - differing} of {len(runs)} runs identical")
    print("src/ lines: " + ", ".join(f"{side} {src_lines(checkout)}"
                                     for side, checkout in sides.items()))
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
