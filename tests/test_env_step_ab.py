import dataclasses
import importlib
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
    assert out[0] == ("outputs bit-identical at every size and mode, "
                      "recorded, replayed, greedy and sampling episodes and "
                      "their trace lines included")
    sizes = list(env_step_ab.SIZES)
    rows = [line.split(" | ") for line in out[3:3 + len(sizes)]]
    assert [(int(r[0][2:]), int(r[1])) for r in rows] == sizes
    assert all(r[5].endswith("/2") for r in rows)
    assert all(float(r[6]) >= 0 and float(r[7]) >= 0 for r in rows)
    # 100 rounds are 5 draws of a chunk per block
    assert all(float(r[8]) > 0 and float(r[9][:-2]) > 0 for r in rows)
    assert out[3 + len(sizes)] == ""
    end = 6 + 3 * len(sizes)
    rows = [line.split(" | ") for line in out[6 + len(sizes):end]]
    assert [(int(r[0][2:]), int(r[1]), r[2]) for r in rows] == [
        (n, k, block) for n, k in sizes for block in ("recorded", "replayed")]
    assert all(float(r[3].split()[0]) > 0 and float(r[4].split()[0]) > 0
               for r in rows)
    assert all(r[6].endswith("/2") for r in rows)
    assert all(float(r[7]) >= 0 and float(r[8][:-2]) >= 0 for r in rows)
    assert out[end] == ""
    assert out[end + 1].endswith("| act pair ratio | act faster |")
    agent_end = end + 3 + 2 * len(sizes)
    rows = [line.split(" | ") for line in out[end + 3:agent_end]]
    assert [(int(r[0][2:]), int(r[1]), r[2]) for r in rows] == [
        (n, k, block) for n, k in sizes for block in ("greedy", "sampling")]
    assert all(float(r[3].split()[0]) > 0 and float(r[4].split()[0]) > 0
               for r in rows)
    assert all(r[6].endswith("/2") and r[12].endswith("/2 |") for r in rows)
    # an act is part of its step
    assert all(0 < float(r[9]) < float(r[3].split()[0])
               and 0 < float(r[10]) < float(r[4].split()[0]) for r in rows)
    assert all(float(r[11][:-1]) > 0 for r in rows)
    assert out[agent_end] == ""
    assert out[agent_end + 1] == ("| N | K | parent us/line | change us/line "
                                  "| pair ratio | change faster |")
    rows = [line.split(" | ") for line in out[agent_end + 3:]]
    assert [(int(r[0][2:]), int(r[1])) for r in rows] == sizes
    assert all(float(r[2].split()[0]) > 0 and float(r[3].split()[0]) > 0
               and float(r[4][:-1]) > 0 and r[5].endswith("/2 |")
               for r in rows)


def test_block_covers_reset_and_counts_minor_faults(monkeypatch):
    # a fake clock and fault counter that reset, decode and step advance
    clock = {"s": 0.0, "faults": 0}

    class Env:
        def __init__(self):
            self._channels = {env_step_ab.SEED: "kept"}
            self.resets = []

        def reset(self, seed, replay=False):
            self.resets.append((replay, dict(self._channels)))
            clock["s"] += 3.0
            clock["faults"] += 7

        def decode_branch_actions(self, *raw):
            clock["s"] += 0.5
            return raw

        def step(self, action):
            assert action == ("raw",)
            clock["s"] += 1.0
            clock["faults"] += 1

    monkeypatch.setattr(env_step_ab, "perf_counter", lambda: clock["s"])
    monkeypatch.setattr(env_step_ab, "getrusage", lambda who: SimpleNamespace(
        ru_minflt=clock["faults"]))
    env = Env()
    raws = [("raw",)] * 4
    us, faults = env_step_ab.time_block(env, raws)
    assert us == (3.0 + 4 * 1.5) / 4 * 1e6
    assert faults == 7 + 4
    for block in ("replayed", "recorded", "replayed"):
        assert env_step_ab.time_block(env, raws, block) == (us, faults)
    # a recorded block first forgets the kept channel
    assert env.resets == [(False, {0: "kept"}), (True, {0: "kept"}),
                          (True, {}), (True, {})]


def test_greedy_block_times_each_act_inside_its_steps(monkeypatch):
    # a fake clock and fault counter that reset, act, decode and step advance
    clock = {"s": 0.0, "faults": 0}

    class Env:
        def __init__(self):
            self.resets, self.steps = [], 0

        def reset(self, seed, replay=False):
            self.resets.append((seed, replay))
            clock["s"] += 3.0
            self.steps = 0
            return "obs0"

        def decode_branch_actions(self, *raw):
            clock["s"] += 0.5
            return raw

        def step(self, action):
            assert action == ("raw",)
            clock["s"] += 1.0
            clock["faults"] += 1
            self.steps += 1
            return f"obs{self.steps}", None, self.steps == 4

    class Agent:
        def __init__(self):
            self.seen = []

        def act(self, obs, greedy=False):
            self.seen.append((obs, greedy))
            clock["s"] += 2.0
            return SimpleNamespace(branch_actions=("raw",))

    monkeypatch.setattr(env_step_ab, "perf_counter", lambda: clock["s"])
    monkeypatch.setattr(env_step_ab, "getrusage", lambda who: SimpleNamespace(
        ru_minflt=clock["faults"]))
    env, agent, sink = Env(), Agent(), []
    us, faults = env_step_ab.time_agent(env, agent, sink)
    assert us == (3.0 + 4 * 3.5) / 4 * 1e6
    assert faults == 4
    assert sink == [2e6] * 4
    assert env.resets == [(env_step_ab.SEED, True)]
    assert agent.seen == [(f"obs{i}", True) for i in range(4)]
    # a sampling block: a training reset, and the agent's draws
    assert env_step_ab.time_agent(env, agent, sink, greedy=False) == (us, 4)
    assert sink == [2e6] * 8
    assert env.resets[1:] == [(env_step_ab.SEED, False)]
    assert agent.seen[4:] == [(f"obs{i}", False) for i in range(4)]


def test_trace_block_writes_every_outcome_into_a_new_writer(monkeypatch):
    clock = {"s": 0.0}
    writers = []

    class Writer:
        def __init__(self, file):
            self.file = file
            writers.append(self)

        def write(self, outcome):
            clock["s"] += 2.0
            self.file.write(f"{outcome}\n")

    monkeypatch.setattr(env_step_ab, "perf_counter", lambda: clock["s"])
    assert env_step_ab.time_trace(Writer, ["a", "b", "c", "d"]) == 2e6
    assert env_step_ab.time_trace(Writer, ["a", "b"]) == 2e6
    assert len(writers) == 2 and writers[0].file is not writers[1].file
    assert writers[0].file.getvalue() == "a\nb\nc\nd\n"


def test_draws_timed_per_call_with_keywords_passed(monkeypatch):
    clock = {"s": 0.0}

    class World:
        def advance_channel(self, out, fading=None):
            clock["s"] += len(out) * 0.5
            return out

    advance = World.advance_channel
    monkeypatch.setattr(env_step_ab, "perf_counter", lambda: clock["s"])
    sink = []
    buffer = [0.0] * 20
    with env_step_ab.timed_draws(World, sink):
        assert World().advance_channel(buffer, fading="work") is buffer
        World().advance_channel(out=[0.0] * 4)
    assert sink == [10e6, 2e6]
    assert World.advance_channel is advance


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
    assert out.startswith("N=10 fedpeat training: outputs differ at record ")
    assert "nothing timed" in out


def test_differing_replay_is_refused_before_timing(capsys, monkeypatch):
    load = env_step_ab.load

    def load_nudged(checkout, name):
        env = load(checkout, name)
        if name.endswith("change"):
            # a recorded or replayed episode runs on the next seed's channel
            reset = env.AdaptiveFedEnv.reset
            monkeypatch.setattr(
                env.AdaptiveFedEnv, "reset",
                lambda self, seed, replay=False: reset(self, seed + replay,
                                                       replay))
        return env

    monkeypatch.setattr(env_step_ab, "load", load_nudged)
    monkeypatch.setattr(env_step_ab, "time_block", lambda *args: 1 / 0)
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out
    assert rc == 1
    assert out == ("N=10 fedpeat recorded: outputs differ at record 0; "
                   "nothing timed\n")


def test_differing_greedy_actions_are_refused_before_timing(capsys,
                                                          monkeypatch):
    load = env_step_ab.load

    def load_nudged(checkout, name):
        env = load(checkout, name)
        if name.endswith("change"):
            # the selection head picks its lowest logits
            agents = importlib.import_module(f"{name}.agents")
            top_k = agents._top_k
            monkeypatch.setattr(agents, "_top_k",
                                lambda x, k: top_k(-x, k))
        return env

    monkeypatch.setattr(env_step_ab, "load", load_nudged)
    monkeypatch.setattr(env_step_ab, "time_block", lambda *args: 1 / 0)
    monkeypatch.setattr(env_step_ab, "time_agent", lambda *args: 1 / 0)
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out
    assert rc == 1
    assert out == ("N=10 fedpeat greedy: outputs differ at record 1; "
                   "nothing timed\n")


def test_differing_sampled_actions_are_refused_before_timing(capsys,
                                                           monkeypatch):
    load = env_step_ab.load

    def load_nudged(checkout, name):
        env = load(checkout, name)
        if name.endswith("change"):
            # the random policy's selection comes in reverse order
            policy = importlib.import_module(f"{name}.agents").RandomPolicy
            branch_action = policy._branch_action
            monkeypatch.setattr(policy, "_branch_action",
                                lambda self, spec: branch_action(self, spec)
                                [::-1 if spec.kind == "topk" else 1])
        return env

    monkeypatch.setattr(env_step_ab, "load", load_nudged)
    for name in ("time_block", "time_agent"):
        monkeypatch.setattr(env_step_ab, name, lambda *args: 1 / 0)
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out
    assert rc == 1
    assert out == ("N=10 fedpeat sampling: outputs differ at record 1; "
                   "nothing timed\n")


def test_differing_trace_lines_are_refused_before_timing(capsys, monkeypatch):
    load = env_step_ab.load

    def load_nudged(checkout, name):
        env = load(checkout, name)
        if name.endswith("change"):
            # the writer numbers every round one too high
            writer = sys.modules[f"{name}.federation"].RoundTraceWriter
            write = writer.write
            monkeypatch.setattr(
                writer, "write", lambda self, outcome: write(
                    self, dataclasses.replace(
                        outcome, round_index=outcome.round_index + 1)))
        return env

    monkeypatch.setattr(env_step_ab, "load", load_nudged)
    for name in ("time_block", "time_agent", "time_trace"):
        monkeypatch.setattr(env_step_ab, name, lambda *args: 1 / 0)
    try:
        rc = env_step_ab.main(["--parent", str(_ROOT), "--repeats", "2"])
    finally:
        _forget({"fedemu_ab_parent", "fedemu_ab_change"})
    out = capsys.readouterr().out
    assert rc == 1
    assert out == ("N=10 fedpeat trace: lines differ at line 0; "
                   "nothing timed\n")
