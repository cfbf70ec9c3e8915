import math
from types import SimpleNamespace

import numpy as np
import pytest

from worker import run_rep, step_problems


def test_invalid_action_is_counted_as_failed(monkeypatch, tmp_path):
    from fedemu.agents import RandomPolicy

    original = RandomPolicy.act
    calls = {"train": 0}

    def act(self, obs, greedy=False):
        step = original(self, obs, greedy=greedy)
        if not greedy:
            calls["train"] += 1
            if calls["train"] == 5:  # duplicate device in the selection
                step.branch_actions[0] = np.array([0, 0])
        return step

    monkeypatch.setattr(RandomPolicy, "act", act)
    config = {"agent": "random", "seed": 1, "total_steps": 20,
              "eval_interval": 10, "eval_episodes": 1,
              "env": {"n_devices": 4, "select_k": 2, "rounds": 5}}
    result = run_rep(config, tmp_path / "run", t0=0.0, traced=False)

    # one eval episode at step 0, four good training steps, then the bad one
    assert result["eval_steps"] == 5
    assert result["train_steps"] == 5
    assert result["attempted"] == 10
    assert result["failed"] == 1
    assert "ActionDecodeError" in result["problems"][0]


def good_step(n=4, k=2):
    reward = SimpleNamespace(r_d=1.0, r_p=-2.0, r_s=-0.5, penalty=0.0, total=-1.5)
    action = SimpleNamespace(selection=(0, 2))
    outcome = SimpleNamespace(rates=np.array([1e9, 0.0, 2e9, 0.0]),
                              exchanges_this_round=np.array([1, 0, 1, 0]),
                              max_q=0.4)
    params = SimpleNamespace(n_devices=n, select_k=k)
    return params, action, reward, outcome


def test_good_step_has_no_problems():
    assert step_problems(*good_step()) == []


@pytest.mark.parametrize("field,value,expect", [
    ("r_d", math.nan, "not finite"),
    ("total", -1.0, "sum of parts"),
    ("selection", (1, 1), "distinct"),
    ("selection", (0, 4), "distinct"),
    ("rates", np.array([1e9, 0.0, 0.0, 0.0]), "non-positive rate"),
    ("exchanges_this_round", np.array([1, 1, 1, 0]), "exchanges"),
    ("max_q", math.inf, "max_q"),
    ("max_q", 0.0, "max_q"),
])
def test_bad_step_outputs_are_flagged(field, value, expect):
    params, action, reward, outcome = good_step()
    for obj in (action, reward, outcome):
        if hasattr(obj, field):
            setattr(obj, field, value)
    problems = step_problems(params, action, reward, outcome)
    assert len(problems) == 1 and expect in problems[0]


def test_real_env_step_passes(tmp_path):
    from fedemu.env import AdaptiveFedEnv, EnvParams

    env = AdaptiveFedEnv(EnvParams(n_devices=6, select_k=3, rounds=4))
    env.reset(7)
    for _ in range(4):
        action = env.decode_branch_actions([0, 3, 5], [0, 1, 2], [3, 2, 1], [0, 1, 3])
        _, reward, _ = env.step(action)
        assert step_problems(env.params, action, reward, env.last_outcome) == []
