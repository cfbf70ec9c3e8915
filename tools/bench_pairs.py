"""Run benchmark pairs, parent against change, and print a comparison table.

    python3 tools/bench_pairs.py --parent ../parent \
        --workload desk-sabppo,wide-rollout,mid-iterrl --seeds 12-21 --seconds 30

``--parent`` is a checkout of the commit to compare against, for example made
with ``git worktree add ../parent HEAD~1``; ``--change`` defaults to this
checkout. ``--workload`` takes one workload or a comma-separated list. Each
seed gives one pair of ``bench/run.py`` runs per workload, one in each
checkout; the pairs of a workload alternate parent-first and change-first so
that slow drift of the host does not favour one side. One table holds the
rows of every workload. For every metric and workload the table shows
the median and quartiles of each side, the ratio of the medians and the
number of pairs the change wins ("better" comes from ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """'12-21' or '2,5,7' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``bench/run.py`` run; returns its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n"
                           f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def fmt(value: float) -> str:
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def summary(values) -> str:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def table(results: dict[str, list[tuple[dict, dict]]], better: dict) -> str:
    """Markdown table over ``{workload: [(parent, change), ...]}``."""
    rows = ["| workload | metric | parent | change | ratio | wins |",
            "|---|---|---|---|---|---|"]
    for workload, pairs in results.items():
        names = [n for n in pairs[0][0]["metrics"] if n in better]
        for name in names:
            par = [p["metrics"][name]["value"] for p, _ in pairs]
            chg = [c["metrics"][name]["value"] for _, c in pairs]
            sign = 1.0 if better[name] == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            med_p = float(np.median(par))
            ratio = float(np.median(chg)) / med_p if med_p else float("nan")
            rows.append(f"| {workload} | {name} | {summary(par)} "
                        f"| {summary(chg)} | {ratio:.3g}x "
                        f"| {wins}/{len(pairs)} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=ROOT)
    ap.add_argument("--workload", required=True,
                    help="a workload or a comma-separated list")
    ap.add_argument("--seeds", required=True, help="e.g. 12-21 or 2,5,7")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload.split(",")
    results = {workload: [] for workload in workloads}
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            result = {}
            for side in order:
                result[side] = run_once(sides[side], workload, seed,
                                        args.seconds, args.trace)
                r = result[side]
                print(f"{workload} seed {seed} {side}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
            results[workload].append((result["parent"], result["change"]))
    print(table(results, better))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
