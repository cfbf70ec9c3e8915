"""Run benchmark pairs, parent against change, and print a comparison table.

    python3 tools/bench_pairs.py --parent ../par --change ../chg \
        --workload desk-sabppo,wide-rollout,mid-iterrl --seeds 12-21 \
        --seconds 30 --out BENCH_<n>.json

``--parent`` is a checkout of the commit to compare against, for example made
with ``git clone . ../par && git -C ../par checkout HEAD~1``; ``--change``
defaults to this checkout. The two resolved paths must be of equal length:
the same code has measured up to 1.6% slower from a checkout path half as
long as the other's, so unequal paths are refused with exit status 2.
``--workload`` takes one workload or a comma-separated list. Each
seed gives one pair of ``bench/run.py`` runs per workload, one in each
checkout; the pairs of a workload alternate parent-first and change-first so
that slow drift of the host does not favour one side. One table holds the
rows of every workload. For every metric and workload the table shows
the median and quartiles of each side, the ratio of the medians and the
number of pairs the change wins ("better" comes from ``BENCHMARK.json``).
``--out`` also writes the table and, pair by pair, every run's result line
to a JSON file; each result carries its checkout's host record (CPU, Python,
numpy and BLAS versions, BLAS thread variables, git sha). After the pairs,
``--out`` also times one run of the change checkout's tier-1 suite
(``TIER1``, with ``src`` on the path and BLAS pinned to one thread, as the
benchmark pins it) and records its wall time, exit status and last line of
output under ``tier1``, with the host record of the change's runs. The suite's
time is recorded, not compared: it is one run, and it is not a benchmark
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def parse_seeds(text: str) -> list[int]:
    """'12-21' or '2,5,7' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``bench/run.py`` run; returns its final JSON line, with the
    ``host`` record of its first line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if lines[0].startswith("host: "):
        result["host"] = json.loads(lines[0][len("host: "):])
    return result


def run_tier1(checkout: Path, host: dict) -> dict:
    """One timed run of ``TIER1`` in ``checkout``; a failing suite is
    recorded by its exit status, not raised."""
    env = dict(os.environ, **THREADS, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": ["python", *TIER1[1:]], "wall_s": round(wall, 2),
            "returncode": proc.returncode,
            "last_line": lines[-1] if lines else "", "host": host}


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
    ap.add_argument("--out", type=Path,
                    help="also write the table and every pair to this JSON")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"error: checkout paths {sides['parent']} and {sides['change']} "
              "differ in length, which alone moves the timings; put both "
              "checkouts on paths of equal length", file=sys.stderr)
        return 2
    workloads = args.workload.split(",")
    results = {workload: [] for workload in workloads}
    seeds = parse_seeds(args.seeds)
    for k, seed in enumerate(seeds):
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
    text = table(results, better)
    print(text)
    if args.out:
        host = results[workloads[-1]][-1][1].get("host")
        record = {"seconds": args.seconds, "trace": args.trace,
                  "pairs": {w: [{"seed": seed, "parent": p, "change": c}
                                for seed, (p, c) in zip(seeds, pairs)]
                            for w, pairs in results.items()},
                  "table": text, "tier1": run_tier1(sides["change"], host)}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
