"""fedemu benchmark: end-to-end training throughput and a traced per-layer
breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. Each repetition is a fresh process
(bench/worker.py) that trains the workload through
``fedemu.harness.run.cmd_train`` with BLAS pinned to one thread. The load is a
closed loop: repetitions follow one another until ``--seconds`` have passed,
and within one each training step starts when the previous one returns.
``--trace 0`` reports the end-to-end metrics (medians over repetitions);
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile
from workloads import WORKLOADS, workload_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # the whole run, including the repetition in flight
SETUP_SAMPLES = 4   # set-up-only processes per untraced run, besides the repetitions

# name -> unit; trace 0 prints these.
END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_steps_per_s": "steps/s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit; trace 1 prints these.
PER_LAYER = {
    "env.step_us_p50": "us", "env.step_us_p90": "us",
    "env.step_self_us_p50": "us", "env.step_share": "ratio",
    "env.step_calls": "count",
    "env.reset_ms_p50": "ms", "env.reset_calls": "count",
    "env.decode_us_p50": "us", "env.decode_calls": "count",
    "federation.run_round_us_p50": "us", "federation.run_round_calls": "count",
    "federation.advance_channel_us_p50": "us",
    "federation.advance_channel_calls": "count",
    "wireless.channel_gain_per_step": "calls/step",
    "wireless.shannon_rate_per_step": "calls/step",
    "wireless.allocate_budgets_per_step": "calls/step",
    "simcore.compute_delay_per_step": "calls/step",
    "agents.act_us_p50": "us", "agents.act_us_p90": "us",
    "agents.act_share": "ratio", "agents.act_calls": "count",
    "agents.buffer_add_us_p50": "us", "agents.buffer_add_calls": "count",
    "agents.update_ms_p50": "ms", "agents.update_calls": "count",
    "agents.update_share": "ratio",
    "neural.forward_calls_per_step": "calls/step",
    "neural.forward_rows_per_call": "rows/call",
    "neural.forward_share": "ratio",
    "neural.backward_calls_per_update": "calls/update",
    "neural.backward_share": "ratio",
    "neural.adam_step_calls_per_update": "calls/update",
    "neural.adam_step_share": "ratio",
    "harness.evaluate_s_p50": "s", "harness.evaluate_calls": "count",
    "harness.eval_share": "ratio",
    "harness.checkpoint_save_ms": "ms", "harness.checkpoint_save_calls": "count",
    "trace.overhead_frac": "ratio",
    "trace.top_level_share": "ratio",
    "trace.reps": "count",
}

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(config: dict, rep_dir: Path, traced: bool, timeout: float,
               spans_path: Path | None = None, setup_only: bool = False):
    """One fresh-process repetition; returns its result dict, or an error
    string when the process produced none. Its files are removed after."""
    out = rep_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--config", json.dumps(config), "--run-dir", str(rep_dir / "run"),
           "--out", str(out), "--trace", str(int(traced))]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    if setup_only:
        cmd.append("--setup-only")
    rep_dir.mkdir(parents=True)
    env = dict(os.environ, **THREADS)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
        if proc.returncode != 0 or not out.exists():
            return f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(out) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        return f"repetition did not finish within {timeout:.0f} s"
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced repetitions (timings pooled, counts
    per repetition) and the tracing overhead against the untraced ones."""
    traces = [r["trace"] for r in traced]
    counts = traces[0]["counts"]
    pooled: dict[str, list] = {}
    self_total: dict[str, float] = {}
    for t in traces:
        for name, values in t["durations"].items():
            pooled.setdefault(name, []).extend(values)
        for name, value in t["self_total"].items():
            self_total[name] = self_total.get(name, 0.0) + value
    step_self = [v for t in traces for v in t["step_self"]]
    wall = sum(t["wall"] for t in traces)
    steps = counts.get("env.step", 0)
    updates = counts.get("agents.update", 0)
    forwards = counts.get("neural.forward", 0)

    def p(name, q, scale):
        return percentile(pooled.get(name, []), q) * scale

    def share(name):
        return self_total.get(name, 0.0) / wall

    def per(name, base):
        return counts.get(name, 0) / base if base else 0.0

    def calls(name):
        return counts.get(name, 0)

    return {
        "env.step_us_p50": p("env.step", 50, 1e6),
        "env.step_us_p90": p("env.step", 90, 1e6),
        "env.step_self_us_p50": percentile(step_self, 50) * 1e6,
        "env.step_share": share("env.step"),
        "env.step_calls": calls("env.step"),
        "env.reset_ms_p50": p("env.reset", 50, 1e3),
        "env.reset_calls": calls("env.reset"),
        "env.decode_us_p50": p("env.decode", 50, 1e6),
        "env.decode_calls": calls("env.decode"),
        "federation.run_round_us_p50": p("federation.run_round", 50, 1e6),
        "federation.run_round_calls": calls("federation.run_round"),
        "federation.advance_channel_us_p50": p("federation.advance_channel", 50, 1e6),
        "federation.advance_channel_calls": calls("federation.advance_channel"),
        "wireless.channel_gain_per_step": per("wireless.channel_gain", steps),
        "wireless.shannon_rate_per_step": per("wireless.shannon_rate", steps),
        "wireless.allocate_budgets_per_step": per("wireless.allocate_budgets", steps),
        "simcore.compute_delay_per_step": per("simcore.compute_delay", steps),
        "agents.act_us_p50": p("agents.act", 50, 1e6),
        "agents.act_us_p90": p("agents.act", 90, 1e6),
        "agents.act_share": share("agents.act"),
        "agents.act_calls": calls("agents.act"),
        "agents.buffer_add_us_p50": p("agents.buffer_add", 50, 1e6),
        "agents.buffer_add_calls": calls("agents.buffer_add"),
        "agents.update_ms_p50": p("agents.update", 50, 1e3),
        "agents.update_calls": updates,
        "agents.update_share": share("agents.update"),
        "neural.forward_calls_per_step": per("neural.forward", steps),
        "neural.forward_rows_per_call": (traces[0]["forward_rows"] / forwards
                                         if forwards else 0.0),
        "neural.forward_share": share("neural.forward"),
        "neural.backward_calls_per_update": per("neural.backward", updates),
        "neural.backward_share": share("neural.backward"),
        "neural.adam_step_calls_per_update": per("neural.adam_step", updates),
        "neural.adam_step_share": share("neural.adam_step"),
        "harness.evaluate_s_p50": p("harness.evaluate", 50, 1.0),
        "harness.evaluate_calls": calls("harness.evaluate"),
        "harness.eval_share": share("harness.evaluate"),
        "harness.checkpoint_save_ms": p("harness.checkpoint_save", 50, 1e3),
        "harness.checkpoint_save_calls": calls("harness.checkpoint_save"),
        "trace.overhead_frac": 1.0 - train_rate(traced) / train_rate(untraced),
        "trace.top_level_share": sum(t["root_total"] for t in traces) / wall,
        "trace.reps": len(traced),
    }


def train_rate(reps: list[dict]) -> float:
    """Median training steps/s over the windows of all the repetitions."""
    return statistics.median(v for r in reps for v in r["train_rates"])


def end_to_end_metrics(results: list[dict], setups: list[dict]) -> dict:
    """Medians over repetitions, and over pooled windows for training
    throughput. Set-up time also takes the set-up-only samples."""
    def median(key):
        return statistics.median(r[key] for r in results)

    return {
        "setup_s": statistics.median(r["setup_s"] for r in results + setups),
        "train_steps_per_s": train_rate(results),
        "eval_steps_per_s": median("eval_steps_per_s"),
        "wall_s": median("wall_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def consistency_problems(reps: list[dict], trace: bool) -> list[str]:
    """Same seed, same outputs: one metrics.csv digest across repetitions,
    and identical per-repetition counts across traced ones."""
    problems = []
    digests = {r["metrics_sha256"] for r in reps}
    if len(digests) != 1 or None in digests:
        problems.append("metrics.csv digests differ across repetitions: "
                        f"{sorted(map(str, digests))}")
    if trace:
        traces = [r["trace"] for r in reps if r["trace"] is not None]
        keys = [(t["counts"], t["forward_rows"]) for t in traces]
        if any(k != keys[0] for k in keys):
            problems.append("call counts differ across traced repetitions")
        for t in traces:
            if t["silent_wrappers"]:
                problems.append(f"wrappers never fired: {t['silent_wrappers']}")
                break
    return problems


def repeat(config: dict, seconds: float, trace: bool, run_work: Path,
           spans_path: Path | None):
    """Closed loop of fresh-process repetitions until ``seconds`` have
    passed. Returns (set-up samples, [(traced, result)], errors)."""
    setups: list[dict] = []
    reps: list[tuple[bool, dict]] = []
    errors: list[str] = []
    start = time.monotonic()
    for i in range(0 if trace else SETUP_SAMPLES):
        result = run_worker(config, run_work / f"setup{i}", False,
                            DEADLINE_S - (time.monotonic() - start),
                            setup_only=True)
        if isinstance(result, str):
            return setups, reps, [result]
        setups.append(result)
    while True:
        elapsed = time.monotonic() - start
        traced = trace and len(reps) % 2 == 0
        result = run_worker(config, run_work / f"rep{len(reps)}", traced,
                            DEADLINE_S - elapsed, spans_path if traced else None)
        if isinstance(result, str):
            errors.append(result)
            break
        reps.append((traced, result))
        now = time.monotonic() - start
        kinds = {t for t, _ in reps}
        # start another repetition only if at least half of it fits
        if now + (now - elapsed) / 2 >= seconds and (not trace or len(kinds) == 2):
            break
        if now + (now - elapsed) > DEADLINE_S:
            if trace and len(kinds) < 2:
                errors.append("no time left for an untraced repetition")
            break
    return setups, reps, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="a few training steps per repetition (self-tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fedemu" / "harness" / "run.py").is_file():
        print(f"error: no fedemu sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    config = workload_config(args.workload, args.seed, quick=args.quick)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_work = WORK / f"{tag}-{os.getpid()}"
    spans_path = WORK / f"spans-{args.workload}.json" if args.trace else None
    try:
        setups, reps, errors = repeat(config, args.seconds, bool(args.trace),
                                      run_work, spans_path)
    finally:
        shutil.rmtree(run_work, ignore_errors=True)

    results = [r for _, r in reps]
    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    problems = [p for r in results for p in r["problems"]] + errors
    if results:
        problems += consistency_problems(results, bool(args.trace))

    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    if results and not errors:
        if args.trace:
            metrics = layer_metrics([r for t, r in reps if t],
                                    [r for t, r in reps if not t])
        else:
            metrics = end_to_end_metrics(results, setups)

    host = dict(results[0]["host"] if results else {}, git_sha=git_sha())
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}"
          f"  repetitions: {len(results)}"
          + (f" ({sum(t for t, _ in reps)} traced)" if args.trace
             else f" (+{len(setups)} set-up only)"))
    if results:
        print(f"metrics.csv sha256: {results[0]['metrics_sha256']}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:36s} {metrics[name]:>14.6g} {unit}")
    if results and not args.trace:
        print("not scaled to the nominal host speed (medians over repetitions):")
        for name in results[0]["raw"]:
            value = statistics.median(r["raw"][name] for r in results)
            print(f"  {name:36s} {value:>14.6g}")
    print(f"  {'error_rate':36s} {failed / max(attempted, 1):>14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    for problem in problems[:10]:
        print(f"problem: {problem}")

    WORK.mkdir(exist_ok=True)
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "host": host, "config": config,
               "metrics": metrics, "problems": problems, "setups": setups,
               "repetitions": [{k: v for k, v in r.items() if k != "trace"}
                               for r in results]}
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump(summary, fh, indent=1)

    line = {
        "correct": bool(results) and not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
