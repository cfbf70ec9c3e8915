import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "env_step_ab", _ROOT / "tools" / "env_step_ab.py")
env_step_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(env_step_ab)


def _forget(packages):
    """Drop the packages the tool imported, so the next test loads them anew."""
    for name in [m for m in sys.modules if m.split(".")[0] in packages]:
        del sys.modules[name]


def test_checkout_against_itself_times_every_size(capsys):
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out.splitlines()
    assert rc == 0, out
    assert out[0] == "outputs bit-identical at every size and mode"
    rows = [line.split(" | ") for line in out[3:]]
    assert [(int(r[0][2:]), int(r[1])) for r in rows] == list(env_step_ab.SIZES)
    assert all(r[5].endswith("/2") for r in rows)
    assert all(float(r[6]) >= 0 and float(r[7][:-2]) >= 0 for r in rows)


def test_block_covers_reset_and_counts_minor_faults(monkeypatch):
    # a fake clock and fault counter that reset and step advance
    clock = {"s": 0.0, "faults": 0}

    class Env:
        def reset(self, seed):
            clock["s"] += 3.0
            clock["faults"] += 7

        def step(self, action):
            clock["s"] += 1.0
            clock["faults"] += 1

    monkeypatch.setattr(env_step_ab, "perf_counter", lambda: clock["s"])
    monkeypatch.setattr(env_step_ab, "getrusage", lambda who: SimpleNamespace(
        ru_minflt=clock["faults"]))
    us, faults = env_step_ab.time_block(Env(), [None] * 4)
    assert us == (3.0 + 4 * 1.0) / 4 * 1e6
    assert faults == 7 + 4


def test_differing_outputs_are_refused_before_timing(capsys, monkeypatch):
    load = env_step_ab.load

    def load_nudged(checkout, name):
        env = load(checkout, name)
        if name.endswith("change"):
            # every tuning target one ulp up
            federation = sys.modules[f"{name}.federation"]
            step = federation.perplexity_step
            monkeypatch.setattr(
                federation, "perplexity_step",
                lambda perplexity, target, rate: step(
                    perplexity, np.nextafter(target, np.inf), rate))
        return env

    monkeypatch.setattr(env_step_ab, "load", load_nudged)
    monkeypatch.setattr(env_step_ab, "time_block", lambda *args: 1 / 0)
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("N=10 fedpeat: outputs differ at record ")
    assert "nothing timed" in out
