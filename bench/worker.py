"""One benchmark repetition in a fresh process.

Runs ``fedemu.harness.run.cmd_train`` on the config it is given, with light
probes that check every step's outputs and stamp the times the end-to-end
metrics need, and optionally with the layer tracer. Writes one JSON result.

    python3 bench/worker.py --config '<json>' --run-dir DIR --t0 T --out FILE
        [--trace 0|1] [--spans FILE] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start and imports. BLAS thread
variables must be set by the parent, before numpy is first imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import LEARNER_ONLY, Patcher, Tracer, self_times

ROOT = Path(__file__).resolve().parents[1]

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Spans whose per-call durations go back to the parent for percentiles.
TIMED_SPANS = (
    "env.step", "env.reset", "env.decode", "federation.run_round",
    "federation.advance_channel", "agents.act", "agents.buffer_add",
    "agents.update", "harness.evaluate", "harness.checkpoint_save",
)


# The host's speed drifts by up to 1.5x over seconds (a fixed loop measured
# on a 2-vCPU Xeon). Every timing is therefore scaled to a nominal host speed:
# a fixed reference workload is timed at least every REF_INTERVAL_S, and a
# window's time is multiplied by REF_NOMINAL_S over the mean reference time
# measured inside that window. Reference time is excluded from all timings.
REF_INTERVAL_S = 0.05
REF_NOMINAL_S = 9e-4


def reference_work(a, x, rng) -> float:
    """Fixed work in the program's three kinds, about a third of the time
    each: small matmuls (updates), tiny numpy and generator calls (the round
    simulation), and plain interpreter code."""
    for _ in range(20):
        x = np.tanh(x @ a)
    p, w = np.zeros(2), np.array([3.0, 4.0])
    for _ in range(50):
        d = w - p
        p = p + d * (0.01 / float(np.linalg.norm(d)))
        p[0] += 1e-3 * rng.standard_normal()
    s = 0
    for i in range(4000):
        s += i * i
    return float(x[0, 0] + p[0]) + s


def step_problems(params, action, reward, outcome) -> list[str]:
    """What is wrong with one env step's outputs; empty when all is well."""
    problems = []
    parts = (reward.r_d, reward.r_p, reward.r_s, reward.penalty)
    total = reward.total
    if not all(math.isfinite(x) for x in (*parts, total)):
        problems.append("reward is not finite")
    elif not math.isclose(total, math.fsum(parts), rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"reward total {total!r} != sum of parts {parts!r}")
    sel = [int(i) for i in action.selection]
    k, n = params.select_k, params.n_devices
    if len(sel) != k or len(set(sel)) != k or not all(0 <= i < n for i in sel):
        problems.append(f"selection {sel} is not {k} distinct indices below {n}")
    elif not bool((outcome.rates[sel] > 0).all()):
        problems.append("a selected device has a non-positive rate")
    if int(outcome.exchanges_this_round.sum()) > k:
        problems.append("more emulator exchanges than selected devices")
    if not (math.isfinite(outcome.max_q) and outcome.max_q > 0):
        problems.append(f"max_q {outcome.max_q!r} is not finite and positive")
    return problems


class Window:
    """Time, evaluation time, reference time and reference samples at the
    start of a measured window."""

    def __init__(self, probes: "Probes"):
        self.probes = probes
        self.start = probes.clock()
        self.eval_time = probes.eval_time
        self.ref_time = probes.ref_time
        self.first_sample = len(probes.ref_samples)

    def close(self, exclude_eval: bool) -> tuple[float, float]:
        """(seconds of program work in the window, mean reference seconds)."""
        p = self.probes
        raw = p.clock() - self.start - (p.ref_time - self.ref_time)
        if exclude_eval:
            raw -= p.eval_time - self.eval_time
        refs = p.ref_samples[self.first_sample:]
        return raw, sum(refs) / len(refs)


class Probes:
    """Hooks kept in untraced and traced repetitions alike: output checks,
    operation counts, host-speed samples, and the windows the end-to-end
    metrics are computed from.

    Training is timed in windows of one PPO segment (``chunk`` steps), each
    holding one episode reset and, for a learner, one update; every evaluate
    call is one window too.
    """

    def __init__(self, chunk: int, clock=time.monotonic):
        self.chunk = chunk
        self.clock = clock
        self.in_eval = False
        self.setup_done_at = None
        self.setup_ref = None
        self.eval_time = 0.0
        self.ckpt_start = None
        self.ckpt_end = None
        self.train_steps = 0
        self.eval_steps = 0
        self.updates = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref_samples: list[float] = []
        self.ref_time = 0.0
        self.chunks: list[tuple[float, float]] = []
        self.eval_calls: list[tuple[float, float, int]] = []
        self._window = None
        self._last_ref = -math.inf
        self._raise_counted = False
        self._ref_a = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
        self._ref_x = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
        self._ref_rng = np.random.default_rng(0)

    def sample_host(self) -> float:
        t = self.clock()
        reference_work(self._ref_a, self._ref_x, self._ref_rng)
        self._last_ref = self.clock()
        dt = self._last_ref - t
        self.ref_samples.append(dt)
        self.ref_time += dt
        return dt

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def aborted(self, message: str) -> None:
        """cmd_train raised. An operation that raised inside a probe is
        already counted; otherwise the step in flight failed outside one."""
        if not self._raise_counted:
            self.train_steps += 1
            self.fail(message)
        elif len(self.problems) < 10:
            self.problems.append(message)

    @property
    def attempted(self) -> int:
        return self.train_steps + self.eval_steps + self.updates

    def _after_train_step(self) -> None:
        if self.train_steps % self.chunk == 0:
            if self._window is not None:
                self.chunks.append(self._window.close(exclude_eval=True))
            self._window = Window(self)
            self.sample_host()
        elif self.clock() - self._last_ref >= REF_INTERVAL_S:
            self.sample_host()

    def install(self, patcher: Patcher) -> None:
        probe = self

        def step(fn):
            def wrapper(env, action, *args, **kwargs):
                if probe.in_eval:
                    probe.eval_steps += 1
                else:
                    probe.train_steps += 1
                try:
                    out = fn(env, action, *args, **kwargs)
                except Exception as exc:
                    probe._raise_counted = True
                    probe.fail(f"env.step raised {exc!r}")
                    raise
                problems = step_problems(env.params, action, out[1],
                                         env.last_outcome)
                if problems:
                    probe.fail(f"round {env.round_index}: " + "; ".join(problems))
                if not probe.in_eval:
                    probe._after_train_step()
                elif probe.clock() - probe._last_ref >= REF_INTERVAL_S:
                    probe.sample_host()
                return out
            return wrapper

        def reset(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if probe.setup_done_at is None and not probe.in_eval:
                    probe.setup_done_at = probe.clock()
                    probe.setup_ref = statistics.median(
                        probe.sample_host() for _ in range(3))
                return out
            return wrapper

        def update(fn):
            def wrapper(*args, **kwargs):
                probe.updates += 1
                try:
                    stats = fn(*args, **kwargs)
                except Exception as exc:
                    probe._raise_counted = True
                    probe.fail(f"update raised {exc!r}")
                    raise
                bad = {k: v for k, v in stats.items() if not math.isfinite(v)}
                if bad:
                    probe.fail(f"update returned non-finite stats {bad}")
                return stats
            return wrapper

        def evaluate(fn):
            def wrapper(*args, **kwargs):
                window = Window(probe)
                probe.sample_host()
                probe.in_eval = True
                steps = probe.eval_steps
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.in_eval = False
                    raw, ref = window.close(exclude_eval=False)
                    probe.eval_time += raw
                    probe.eval_calls.append((raw, ref, probe.eval_steps - steps))
            return wrapper

        def checkpoint(fn):
            def wrapper(*args, **kwargs):
                probe.ckpt_start = probe.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe.ckpt_end = probe.clock()
            return wrapper

        patcher.patch("fedemu.env", "AdaptiveFedEnv.step", step)
        patcher.patch("fedemu.env", "AdaptiveFedEnv.reset", reset)
        patcher.patch("fedemu.agents", "*.update", update)
        patcher.patch("fedemu.harness.run", "evaluate", evaluate)
        patcher.patch("fedemu.harness.checkpoint", "save_checkpoint", checkpoint)


def trace_summary(tracer: Tracer, keys: list[str], wall: float,
                  trainable: bool) -> dict:
    """Per-layer raw figures of one traced repetition."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    durations = {name: [] for name in TIMED_SPANS}
    self_total: dict[str, float] = {}
    step_self = []
    root_total = 0.0
    for name, s, e, p, st in zip(tracer.names, tracer.starts, tracer.ends,
                                 tracer.parents, selfs):
        if name in durations:
            durations[name].append(e - s)
        if name == "env.step":
            step_self.append(st)
        self_total[name] = self_total.get(name, 0.0) + st
        if p < 0:
            root_total += e - s
    counts = dict(tracer.span_counts())
    counts.update(tracer.counts)
    silent = [key for key in keys if tracer.fired[key] == 0
              and (trainable or key.split(":")[0] not in LEARNER_ONLY)]
    return {
        "wall": wall,
        "durations": durations,
        "step_self": step_self,
        "self_total": self_total,
        "root_total": root_total,
        "counts": counts,
        "forward_rows": tracer.forward_rows,
        "silent_wrappers": silent,
    }


def write_spans(tracer: Tracer, path: Path) -> None:
    names = sorted(set(tracer.names))
    index = {n: i for i, n in enumerate(names)}
    spans = [[index[n], s, e, p] for n, s, e, p in zip(
        tracer.names, tracer.starts, tracer.ends, tracer.parents)]
    with open(path, "w") as fh:
        json.dump({"names": names, "fields": ["name", "start", "end", "parent"],
                   "spans": spans}, fh)


def scaled(seconds: float, ref: float) -> float:
    """Seconds at the nominal host speed, given the reference time measured
    alongside."""
    return seconds * REF_NOMINAL_S / ref


class SetupDone(Exception):
    """Ends a set-up-only repetition at the first training step."""


def measure_setup(config_dict: dict, run_dir, t0: float) -> dict:
    """Run cmd_train only up to its first training step; returns setup_s."""
    from fedemu.harness.config import config_from_dict
    from fedemu.harness.run import cmd_train

    config = config_from_dict(config_dict)
    patcher = Patcher()
    probes = Probes(chunk=config.ppo.segment)

    def stop_after(fn):
        def wrapper(*args, **kwargs):
            fn(*args, **kwargs)
            raise SetupDone
        return wrapper

    try:
        probes.install(patcher)
        patcher.patch("fedemu.env", "AdaptiveFedEnv.reset", stop_after)
        try:
            cmd_train(config, run_dir=Path(run_dir))
        except SetupDone:
            pass
    finally:
        patcher.restore()
    return {"setup_s": scaled(probes.setup_done_at - t0, probes.setup_ref),
            "raw_setup_s": probes.setup_done_at - t0}


def run_rep(config_dict: dict, run_dir, t0: float, traced: bool,
            spans_path=None) -> dict:
    """Train once through cmd_train and return the measured figures. Every
    patched callable is restored before this returns."""
    from fedemu.harness.config import config_from_dict
    from fedemu.harness.run import cmd_train

    config = config_from_dict(config_dict)
    run_dir = Path(run_dir)
    patcher = Patcher()
    probes = Probes(chunk=config.ppo.segment)
    tracer = Tracer() if traced else None
    try:
        keys = tracer.install(patcher) if traced else []
        probes.install(patcher)
        start = time.perf_counter()
        try:
            cmd_train(config, run_dir=run_dir)
        except Exception:
            probes.aborted(traceback.format_exc(limit=3))
        end = time.monotonic()
        wall = time.perf_counter() - start
    finally:
        patcher.restore()

    if probes.failed == 0 and probes.train_steps != config.total_steps:
        probes.fail(f"ran {probes.train_steps} training steps, "
                    f"config asks for {config.total_steps}")
    setup_at = probes.setup_done_at or end
    loop_end = probes.ckpt_start or end
    wall_end = probes.ckpt_end or end
    train_time = loop_end - setup_at - probes.eval_time - probes.ref_time
    mean_ref = (statistics.fmean(probes.ref_samples) if probes.ref_samples
                else REF_NOMINAL_S)
    metrics_csv = run_dir / "metrics.csv"
    digest = (hashlib.sha256(metrics_csv.read_bytes()).hexdigest()
              if metrics_csv.exists() else None)
    result = {
        "train_steps": probes.train_steps,
        "eval_steps": probes.eval_steps,
        "updates": probes.updates,
        "attempted": probes.attempted,
        "failed": probes.failed,
        "problems": probes.problems,
        "setup_s": scaled(setup_at - t0, probes.setup_ref or REF_NOMINAL_S),
        "wall_s": scaled(wall_end - t0 - probes.ref_time, mean_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # per window, in steps per nominal-host second; medians in the parent
        "train_rates": [config.ppo.segment / scaled(raw, ref)
                        for raw, ref in probes.chunks],
        # the final evaluate call also writes round traces, so calls differ;
        # one rate over all of a repetition's calls
        "eval_steps_per_s": (
            sum(steps for _, _, steps in probes.eval_calls)
            / sum(scaled(raw, ref) for raw, ref, _ in probes.eval_calls)
            if probes.eval_calls else 0.0),
        "raw": {
            "setup_s": setup_at - t0,
            "train_steps_per_s": (probes.train_steps / train_time
                                  if train_time > 0 else 0.0),
            "eval_steps_per_s": (probes.eval_steps / probes.eval_time
                                 if probes.eval_time > 0 else 0.0),
            "wall_s": wall_end - t0,
            "mean_ref_s": mean_ref,
        },
        "metrics_sha256": digest,
        "trace": None,
    }
    if traced:
        trainable = config.agent in ("sabppo", "iterrl", "happo")
        result["trace"] = trace_summary(tracer, keys, wall, trainable)
        if spans_path is not None:
            write_spans(tracer, Path(spans_path))
    return result


def host_info() -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    config = json.loads(args.config)
    if args.setup_only:
        result = measure_setup(config, args.run_dir, args.t0)
    else:
        result = run_rep(config, args.run_dir, args.t0, bool(args.trace),
                         args.spans)
        result["host"] = host_info()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
