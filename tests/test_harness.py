import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedemu.agents import PpoConfig
from fedemu.env import CHUNK, AdaptiveFedEnv, EnvParams
from fedemu.federation import World
from fedemu.harness import cli
from fedemu.harness import run as run_module
from fedemu.harness.checkpoint import (
    _state_arrays,
    load_checkpoint,
    save_checkpoint,
)
from fedemu.harness.compare import cmd_compare
from fedemu.harness.config import (
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from fedemu.harness.plots import cmd_export_plots, polyline_svg
from fedemu.harness.run import (
    METRICS_COLUMNS,
    build_agent,
    cmd_eval,
    cmd_train,
    evaluate,
)


def tiny_config(**overrides):
    env_kw = dict(n_devices=4, select_k=2, rounds=10)
    env_kw.update(overrides.pop("env_overrides", {}))
    env = dataclasses.replace(EnvParams(), **env_kw)
    ppo = PpoConfig(segment=50, minibatch=25, epochs=2)
    base = dict(env=env, ppo=ppo, total_steps=300, eval_interval=100,
                eval_episodes=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# metrics.csv rows of the tiny config in test_tiny_config_golden for every
# agent kind in every federation mode; the fedpeat rows were recorded before
# the three learners shared one PPO update, the fedpeft and fedft rows before
# run_round became one pass over selection-aligned arrays. A sampling
# baseline's evaluation rows all repeat its step-0 row, because every
# evaluation builds the baseline's fixed-seed twin afresh
TINY_GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "tiny_metrics_golden.json")
    .read_text())["rows"]


class TestConfig:
    def test_round_trip_through_yaml(self, tmp_path):
        config = tiny_config(agent="happo", seed=3)
        path = tmp_path / "config.yaml"
        save_config(config, path)
        assert load_config(path) == config

    def test_dict_round_trip(self):
        config = default_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_profiles(self):
        assert default_config("desk").total_steps == 200_000
        assert default_config("paper").total_steps == 5_000_000
        with pytest.raises(ValueError):
            default_config("gibberish")

    def test_unknown_key_rejected(self):
        data = config_to_dict(default_config())
        data["env"]["does_not_exist"] = 1
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_bad_agent_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(agent="dqn")

    @pytest.mark.parametrize("section,values,field", [
        ("env", {"n_devices": 4, "select_k": 5}, "select_k"),
        ("env", {"select_k": 0}, "select_k"),
        ("env", {"n_devices": 0}, "n_devices"),
        ("env", {"rounds": 0}, "rounds"),
        ("env", {"levels": 0}, "levels"),
        ("env", {"retention_grid": []}, "retention_grid"),
        ("env", {"retention_grid": [0.0, 1.0]}, "retention_grid"),
        ("env", {"retention_grid": [0.5, 1.5]}, "retention_grid"),
        ("env", {"local_epochs": -1}, "local_epochs"),
        ("env", {"exchange_fraction_c": 0.0}, "exchange_fraction_c"),
        ("env", {"exchange_fraction_c": -5.0}, "exchange_fraction_c"),
        ("env", {"data_size_range": [350, 150]}, "data_size_range"),
        ("ppo", {"segment": 0}, "segment"),
        ("ppo", {"minibatch": 0}, "minibatch"),
    ], ids=lambda v: (",".join(f"{k}={x}" for k, x in v.items())
                      if isinstance(v, dict) else v))
    def test_bad_value_rejected_naming_the_field(self, section, values, field):
        with pytest.raises(ValueError, match=field):
            config_from_dict({section: values})

    def test_overrides(self):
        config = apply_overrides(default_config(),
                                 ["env.n_devices=4", "env.select_k=2",
                                  "seed=9", "ppo.entropy_coef=0.0"])
        assert config.env.n_devices == 4
        assert config.seed == 9
        assert config.ppo.entropy_coef == 0.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(default_config(), ["env.nope=1"])

    @pytest.mark.parametrize("override,key", [
        ("env.n_devices=ten", "EnvParams.n_devices"),
        ("env.n_devices=true", "EnvParams.n_devices"),
        ("env.n_devices=4.0", "EnvParams.n_devices"),
        ("ppo.minibatch=abc", "PpoConfig.minibatch"),
        ("env.n_devices=[", "'env.n_devices'"),
        ("env.speed_range={a", "'env.speed_range'"),
        # YAML reads nan and 1e-6 (no dot) as strings
        ("env.noise_dbm_per_hz=nan", "EnvParams.noise_dbm_per_hz"),
        ("env.delay_floor=1e-6", "EnvParams.delay_floor"),
        ("env.speed_range=[1, 2, 3]", "EnvParams.speed_range"),
        ("env.speed_range=5", "EnvParams.speed_range"),
        ("env.data_size_range=[150.0, 350.0]", "EnvParams.data_size_range"),
        ("env.retention_grid=[0.5, high]", "EnvParams.retention_grid"),
        ("env.mode=1", "EnvParams.mode"),
        ("ppo.hidden=[64, 64.5]", "PpoConfig.hidden"),
        ("ppo.epochs=true", "PpoConfig.epochs"),
        ("agent=3", "ExperimentConfig.agent"),
        ("env=3", "EnvParams"),
    ])
    def test_mistyped_override_rejected_naming_the_key(self, override, key):
        with pytest.raises(ValueError, match=key):
            apply_overrides(default_config(), [override])

    def test_values_keep_their_type(self):
        # an int fits a float field and is not converted, so the manifest
        # holds what the config said
        config = apply_overrides(default_config(), [
            "env.power_budget=15", "env.retention_grid=[0.5, 1]",
            "ppo.hidden=[32]"])
        assert type(config.env.power_budget) is int
        assert config.env.retention_grid == (0.5, 1)
        assert type(config.env.retention_grid[1]) is int
        assert config.ppo.hidden == (32,)
        data = json.loads(json.dumps(config_to_dict(config)))
        assert data["env"]["power_budget"] == 15
        assert data["env"]["retention_grid"] == [0.5, 1]
        assert config_from_dict(data) == config


def loop_calls(config, run_dir, monkeypatch, resume=False):
    """The calls one ``cmd_train`` makes, in order: ("reset", episode) for
    each training reset, ("evaluate", step), ("update", step) and
    ("checkpoint", step, episode); a step counts the training steps taken
    so far, from the checkpoint's step on a resumed run."""
    calls, episodes = [], {run_module._derived_seed(config.seed, 4, e): e
                           for e in range(100)}
    steps = [0, False]  # training steps so far; inside an evaluation
    if resume:
        meta = json.loads((run_dir / "checkpoint.json").read_text())["meta"]
        steps[0] = meta["step"]
    reset, step = AdaptiveFedEnv.reset, AdaptiveFedEnv.step
    build, evaluate_ = run_module.build_agent, run_module.evaluate
    save = run_module.save_checkpoint

    def reset_logged(env, seed, replay=False):
        if not replay:
            calls.append(("reset", episodes.get(seed, seed)))
        return reset(env, seed, replay)

    def step_counted(env, action):
        steps[0] += not steps[1]
        return step(env, action)

    def evaluate_logged(*args, **kwargs):
        calls.append(("evaluate", steps[0]))
        steps[1] = True
        try:
            return evaluate_(*args, **kwargs)
        finally:
            steps[1] = False

    def build_logged(config):
        agent = build(config)
        if hasattr(agent, "update"):
            update = agent.update

            def update_logged(buffer):
                calls.append(("update", steps[0]))
                return update(buffer)
            agent.update = update_logged
        return agent

    def save_logged(path, agent, *, step, episode):
        calls.append(("checkpoint", step, episode))
        return save(path, agent, step=step, episode=episode)

    monkeypatch.setattr(AdaptiveFedEnv, "reset", reset_logged)
    monkeypatch.setattr(AdaptiveFedEnv, "step", step_counted)
    monkeypatch.setattr(run_module, "build_agent", build_logged)
    monkeypatch.setattr(run_module, "evaluate", evaluate_logged)
    monkeypatch.setattr(run_module, "save_checkpoint", save_logged)
    try:
        cmd_train(config, run_dir, resume=resume)
    finally:
        monkeypatch.undo()
    return calls


class TestTrain:
    def test_tiny_config_golden(self, tmp_path):
        for mode, by_agent in TINY_GOLDEN.items():
            env = dataclasses.replace(EnvParams(), n_devices=4, select_k=2,
                                      rounds=5, mode=mode)
            for agent, rows in by_agent.items():
                config = ExperimentConfig(
                    agent=agent, env=env,
                    ppo=PpoConfig(segment=10, minibatch=5),
                    total_steps=20, eval_interval=10, seed=3)
                run_dir = tmp_path / f"{mode}_{agent}"
                cmd_train(config, run_dir)
                lines = (run_dir / "metrics.csv").read_text().splitlines()
                got = [list(map(float, line.split(","))) for line in lines[1:]]
                assert got == [pytest.approx(row, rel=1e-9) for row in rows], (
                    mode, agent)

    def test_zero_steps_writes_manifest_and_empty_metrics(self, tmp_path):
        result = cmd_train(tiny_config(total_steps=0), tmp_path / "run0")
        assert (tmp_path / "run0" / "manifest.json").exists()
        lines = (tmp_path / "run0" / "metrics.csv").read_text().splitlines()
        assert lines == [",".join(METRICS_COLUMNS)]
        assert result.steps == 0

    def test_metrics_deterministic_across_runs(self, tmp_path):
        config = tiny_config()
        cmd_train(config, tmp_path / "a")
        cmd_train(config, tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_metrics_schema_is_documented(self, tmp_path):
        from fedemu.harness import run as run_module
        cmd_train(tiny_config(), tmp_path / "run")
        header = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",") == METRICS_COLUMNS
        for column in METRICS_COLUMNS:
            assert column in run_module.__doc__

    def test_manifest_contents(self, tmp_path):
        config = tiny_config(run_name="probe")
        cmd_train(config, tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["end_time"] is not None
        assert manifest["config"]["env"]["n_devices"] == 4
        assert config_from_dict(manifest["config"]) == config
        blas = manifest["blas"]
        assert blas == "unpinned" or blas["threads"] == 1

    def test_refuses_dirty_run_dir(self, tmp_path):
        cmd_train(tiny_config(total_steps=0), tmp_path / "run")
        with pytest.raises(FileExistsError):
            cmd_train(tiny_config(), tmp_path / "run")

    def test_timings_file_written(self, tmp_path):
        cmd_train(tiny_config(), tmp_path / "run")
        lines = (tmp_path / "run" / "timings.csv").read_text().splitlines()
        assert lines[0] == "update,step,seconds"
        assert len(lines) > 1  # 300 steps / segment 50 -> 6 updates

    def test_random_agent_runs(self, tmp_path):
        result = cmd_train(tiny_config(agent="random"), tmp_path / "run")
        assert result.final_metrics is not None

    def test_resets_only_episodes_it_steps(self, tmp_path, monkeypatch):
        # 40 steps are 4 whole episodes; the step that ends the fourth
        # starts no fifth, and the checkpoint still counts 4 episodes
        config = tiny_config(agent="random", total_steps=40, eval_interval=20)
        seeds, reset = [], AdaptiveFedEnv.reset

        def training_resets_counted(env, seed, replay=False):
            if not replay:
                seeds.append(seed)
            return reset(env, seed, replay)

        monkeypatch.setattr(AdaptiveFedEnv, "reset", training_resets_counted)
        cmd_train(config, tmp_path / "run")
        assert len(seeds) == len(set(seeds)) == 4
        meta = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        meta = meta["meta"]
        assert meta["episode"] == 4 and meta["step"] == 40

    def test_first_reset_is_training_and_precedes_first_eval(self, tmp_path,
                                                             monkeypatch):
        # bench/worker.py ends set-up at the first reset of any env, but
        # records the time only for a training reset; an eval reset would
        # also draw a whole channel into set-up. A reset is logged once it
        # returns, with the episode's whole channel drawn.
        events, reset = [], AdaptiveFedEnv.reset
        evaluate_ = run_module.evaluate

        def reset_logged(env, seed, replay=False):
            obs = reset(env, seed, replay)
            events.append(("reset", env, replay))
            return obs

        def evaluate_logged(*args, **kwargs):
            events.append(("evaluate", kwargs["env"], None))
            return evaluate_(*args, **kwargs)

        monkeypatch.setattr(AdaptiveFedEnv, "reset", reset_logged)
        monkeypatch.setattr(run_module, "evaluate", evaluate_logged)
        for kind in ("sabppo", "random"):
            events.clear()
            cmd_train(tiny_config(agent=kind, total_steps=20,
                                  eval_interval=10), tmp_path / kind)
            assert [(what, replay) for what, _, replay in events[:2]] == [
                ("reset", False), ("evaluate", None)], kind
            assert events[0][1] is not events[1][1], kind  # the training env

    def test_loop_calls_keep_their_order(self, tmp_path, monkeypatch):
        # 10-round episodes, segments of 25 and evaluations every 15 steps:
        # evaluations fall mid-episode (15, 45) and on an episode's end (30,
        # 60), a segment ends mid-episode (25, 75) and on one (50), and the
        # run ends mid-episode. At one step the update comes first, then the
        # reset of the episode the step starts, then the evaluation. A run
        # resumed at the eval point 30 resets its episode, writes no row at
        # 30 and fills its buffer afresh from there; the run that stopped
        # at 30 reset no episode there.
        config = tiny_config(total_steps=75, eval_interval=15, eval_episodes=1,
                             ppo=PpoConfig(segment=25, minibatch=25, epochs=1))
        learner = [
            ("reset", 0), ("evaluate", 0), ("reset", 1), ("evaluate", 15),
            ("reset", 2), ("update", 25), ("reset", 3), ("evaluate", 30),
            ("reset", 4), ("evaluate", 45), ("update", 50), ("reset", 5),
            ("reset", 6), ("evaluate", 60), ("reset", 7), ("update", 75),
            ("evaluate", 75), ("checkpoint", 75, 7)]
        assert loop_calls(config, tmp_path / "sabppo", monkeypatch) == learner
        assert loop_calls(dataclasses.replace(config, agent="random"),
                          tmp_path / "random", monkeypatch) == [
            call for call in learner if call[0] != "update"]
        assert loop_calls(dataclasses.replace(config, total_steps=30),
                          tmp_path / "resumed", monkeypatch) == [
            *learner[:6], ("evaluate", 30), ("checkpoint", 30, 3)]
        assert loop_calls(config, tmp_path / "resumed", monkeypatch,
                          resume=True) == [
            ("reset", 3), ("reset", 4), ("evaluate", 45), ("reset", 5),
            ("update", 55), ("reset", 6), ("evaluate", 60), ("reset", 7),
            ("evaluate", 75), ("checkpoint", 75, 7)]

    def test_rounds_trace_written(self, tmp_path):
        cmd_train(tiny_config(), tmp_path / "run")
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "rounds.jsonl").read_text().splitlines()]
        # final eval: 2 episodes x 10 rounds
        assert len(rows) == 20
        assert {r["round"] for r in rows} == set(range(10))


class TestCheckpoint:
    def test_round_trip_restores_exact_state(self, tmp_path):
        config = tiny_config()
        agent = build_agent(config)
        # push the agent away from init so the state is non-trivial
        from test_agents import rollout_env
        buffer = rollout_env(agent, params=config.env, seed=0,
                             steps=agent.cfg.segment)
        agent.update(buffer)
        save_checkpoint(tmp_path / "ck", agent, step=50, episode=5)

        twin = build_agent(config)
        meta = load_checkpoint(tmp_path / "ck", agent=twin)
        assert meta["step"] == 50 and meta["episode"] == 5
        for a, b in zip(agent.units[0].opt.params,
                        twin.units[0].opt.params):
            assert np.array_equal(a, b)
        for a, b in zip(agent.critics[0].opt.params,
                        twin.critics[0].opt.params, strict=True):
            assert np.array_equal(a, b)
        obs = np.random.default_rng(0).standard_normal(config.env.observation_dim)
        # identical sampling stream state after restore
        x = agent.act(obs).branch_actions
        y = twin.act(obs).branch_actions
        assert all(np.array_equal(p, q) for p, q in zip(x, y))

    @pytest.mark.parametrize("kind", ["sabppo", "iterrl", "happo"])
    def test_update_after_load_is_bit_identical(self, kind, tmp_path):
        """Each optimiser keeps its moments in one flat buffer that the
        checkpoint reaches through per-array views; a load must write
        through them, so the next update of the loaded agent is the
        original's, bit for bit."""
        from test_agents import rollout_env
        config = tiny_config(agent=kind)
        agent = build_agent(config)
        for seed in (0, 1):
            agent.update(rollout_env(agent, params=config.env, seed=seed))
        save_checkpoint(tmp_path / "ck", agent, step=100, episode=0)
        twin = build_agent(config)
        load_checkpoint(tmp_path / "ck", agent=twin)

        buffer = rollout_env(agent, params=config.env, seed=2)
        agent.update(buffer)
        twin.update(buffer)
        want, got = _state_arrays(agent), _state_arrays(twin)
        assert list(want) == list(got)
        assert any(key.endswith("/m0") for key in want)  # moments included
        for key in want:
            assert np.array_equal(want[key], got[key]), key

    def test_manifest_lists_all_fields(self, tmp_path):
        config = tiny_config()
        agent = build_agent(config)
        save_checkpoint(tmp_path / "ck", agent, step=0, episode=0)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        keys = [f["key"] for f in manifest["fields"]]
        with np.load(tmp_path / "ck.npz") as data:
            assert sorted(keys) == sorted(data.files)

    def test_critic_state_is_net_and_moments_only(self, tmp_path):
        config = tiny_config(agent="iterrl")
        save_checkpoint(tmp_path / "ck", build_agent(config), step=0,
                        episode=0)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        keys = [f["key"] for f in manifest["fields"]]
        assert sum(key.startswith("critic3/net/") for key in keys) == 6
        assert not any("/target/" in key for key in keys)
        assert "critic_updates" not in manifest["meta"]

    def test_loads_a_checkpoint_with_critic_targets(self, tmp_path):
        """Checkpoints written while critics kept a lagged target also
        hold the target nets' arrays and a critic update counter; a load
        ignores both."""
        from test_agents import rollout_env
        config = tiny_config()
        agent = build_agent(config)
        agent.update(rollout_env(agent, params=config.env, seed=0))
        save_checkpoint(tmp_path / "ck", agent, step=50, episode=1)
        with np.load(tmp_path / "ck.npz") as data:
            arrays = {key: data[key] for key in data.files}
        targets = {key.replace("/net/", "/target/"): np.zeros_like(a)
                   for key, a in arrays.items()
                   if key.startswith("critic0/net/")}
        np.savez(tmp_path / "old.npz", **arrays, **targets)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["fields"] += [{"key": key, "shape": list(a.shape)}
                               for key, a in targets.items()]
        manifest["meta"]["critic_updates"] = {"critic0": 4}
        (tmp_path / "old.json").write_text(json.dumps(manifest))

        twin = build_agent(config)
        meta = load_checkpoint(tmp_path / "old", agent=twin)
        assert meta["step"] == 50
        want, got = _state_arrays(agent), _state_arrays(twin)
        assert list(want) == list(got)
        for key in want:
            assert np.array_equal(want[key], got[key]), key

    def test_resume_continues_training(self, tmp_path):
        config = tiny_config(total_steps=100)
        cmd_train(config, tmp_path / "run")
        longer = dataclasses.replace(config, total_steps=200)
        result = cmd_train(longer, tmp_path / "run", resume=True)
        assert result.steps == 200

    def test_resume_writes_no_duplicate_row(self, tmp_path):
        # stopped at a segment and episode boundary, so the resumed run is
        # the uninterrupted one, row for row and in its final checkpoint,
        # for learners with one critic and with one per unit, and for the
        # sampling baselines
        for kind in ("sabppo", "iterrl", "random", "fedft"):
            config = tiny_config(agent=kind, total_steps=100, eval_interval=50)
            run, straight = tmp_path / f"{kind}-run", tmp_path / kind
            cmd_train(config, run)
            longer = dataclasses.replace(config, total_steps=200)
            cmd_train(longer, run, resume=True)
            cmd_train(longer, straight)
            lines = (run / "metrics.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [
                "0", "50", "100", "150", "200"]
            assert lines == (straight / "metrics.csv").read_text().splitlines()
            assert ((run / "rounds.jsonl").read_bytes()
                    == (straight / "rounds.jsonl").read_bytes())
            metas = [json.loads((d / "checkpoint.json").read_text())["meta"]
                     for d in (run, straight)]
            assert metas[0] == metas[1], kind
            with (np.load(run / "checkpoint.npz") as got,
                  np.load(straight / "checkpoint.npz") as want):
                assert got.files == want.files, kind
                for key in want.files:
                    assert np.array_equal(got[key], want[key]), (kind, key)

    def test_resume_keeps_manifest_start_time(self, tmp_path):
        config = tiny_config(total_steps=50)
        cmd_train(config, tmp_path / "run")
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["start_time"] = "2000-01-01T00:00:00"
        path.write_text(json.dumps(manifest))
        cmd_train(dataclasses.replace(config, total_steps=100),
                  tmp_path / "run", resume=True)
        manifest = json.loads(path.read_text())
        assert manifest["start_time"] == "2000-01-01T00:00:00"
        assert manifest["end_time"] is not None
        assert manifest["config"]["total_steps"] == 100

    def test_resume_without_checkpoint_starts_over(self, tmp_path):
        # an earlier attempt stopped after the manifest, before any checkpoint
        config = tiny_config(total_steps=50)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({"start_time": "2000-01-01T00:00:00"}))
        cmd_train(config, run_dir, resume=True)
        assert json.loads(path.read_text())["start_time"] != (
            "2000-01-01T00:00:00")
        fresh = tmp_path / "fresh"
        cmd_train(config, fresh)
        assert ((run_dir / "metrics.csv").read_text()
                == (fresh / "metrics.csv").read_text())

    def test_resume_refuses_arrays_of_another_shape(self, tmp_path):
        # levels 1 -> 4 widens the rows heads' output layer from (64, 1) to
        # (64, 4); nothing of the agent is restored
        cmd_train(tiny_config(total_steps=50, env_overrides={"levels": 1}),
                  tmp_path / "run")
        config = tiny_config(total_steps=100)
        agent = build_agent(config)
        fresh = [a.copy() for a in _state_arrays(agent).values()]
        with pytest.raises(ValueError, match="actor0/net1/layer2/w"):
            load_checkpoint(tmp_path / "run" / "checkpoint", agent)
        for a, b in zip(fresh, _state_arrays(agent).values(), strict=True):
            assert np.array_equal(a, b)
        with pytest.raises(ValueError, match="actor0/net1/layer2/w"):
            cmd_train(config, tmp_path / "run", resume=True)

    @pytest.mark.parametrize("kind,part,name", [
        ("random", "rng", "sample"), ("sabppo", "opt_steps", "actor0")])
    def test_resume_refuses_a_missing_step_or_stream(self, tmp_path, kind,
                                                     part, name):
        # without the entry a resumed run would go on from a fresh stream or
        # fail after its arrays were overwritten; nothing is restored
        config = tiny_config(agent=kind, total_steps=50)
        cmd_train(config, tmp_path / "run")
        path = tmp_path / "run" / "checkpoint.json"
        manifest = json.loads(path.read_text())
        del manifest["meta"][part][name]
        path.write_text(json.dumps(manifest))
        agent = build_agent(config)
        fresh = [a.copy() for a in _state_arrays(agent).values()]
        streams = {k: g.bit_generator.state
                   for k, g in agent.rng_streams().items()}
        with pytest.raises(ValueError, match=f"no {part}.{name}$"):
            load_checkpoint(tmp_path / "run" / "checkpoint", agent)
        for a, b in zip(fresh, _state_arrays(agent).values(), strict=True):
            assert np.array_equal(a, b)
        assert streams == {k: g.bit_generator.state
                           for k, g in agent.rng_streams().items()}

    def test_resume_refuses_another_agent_kind_naming_the_key(self,
                                                              tmp_path):
        # SABPPO has one actor unit; IterRL's second unit has no saved arrays
        cmd_train(tiny_config(total_steps=50), tmp_path / "run")
        agent = build_agent(tiny_config(agent="iterrl"))
        fresh = [a.copy() for a in _state_arrays(agent).values()]
        with pytest.raises(ValueError, match="no array actor1/net0/layer0/w"):
            load_checkpoint(tmp_path / "run" / "checkpoint", agent)
        for a, b in zip(fresh, _state_arrays(agent).values(), strict=True):
            assert np.array_equal(a, b)

    def test_resume_refuses_float64_arrays(self, tmp_path):
        """A float64 checkpoint would be rounded into the float32 nets, so
        the resumed run would not continue the saved one exactly."""
        config = tiny_config(total_steps=50)
        agent = build_agent(config)
        save_checkpoint(tmp_path / "ck", agent, step=0, episode=0)
        with np.load(tmp_path / "ck.npz") as data:
            arrays = {k: data[k].astype(np.float64) for k in data.files}
        np.savez(tmp_path / "ck.npz", **arrays)
        twin = build_agent(config)
        fresh = [a.copy() for a in _state_arrays(twin).values()]
        with pytest.raises(ValueError, match="checkpoint array actor0/net0/"
                           "layer0/w has dtype float64, the agent's float32"):
            load_checkpoint(tmp_path / "ck", twin)
        for a, b in zip(fresh, _state_arrays(twin).values(), strict=True):
            assert np.array_equal(a, b)

    def test_resume_continues_update_numbers(self, tmp_path):
        config = tiny_config(total_steps=100)  # segment 50: two updates
        cmd_train(config, tmp_path / "run")
        cmd_train(dataclasses.replace(config, total_steps=200),
                  tmp_path / "run", resume=True)
        lines = (tmp_path / "run" / "timings.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [(int(u), int(s)) for u, s, _ in rows] == [
            (1, 50), (2, 100), (3, 150), (4, 200)]


class TestCompare:
    def test_self_comparison_ratio_one(self, tmp_path):
        config = tiny_config()
        cmd_train(config, tmp_path / "run")
        result = cmd_compare([tmp_path / "run", tmp_path / "run"])
        for pair in result["pairs"]:
            assert pair["delay_ratio"] == pytest.approx(1.0)
            assert pair["perplexity_delta"] == 0.0
            assert pair["reward_delta"] == 0.0

    def test_fedft_exchange_cell_is_na(self, tmp_path):
        config = tiny_config(agent="fedft",
                             env_overrides={"mode": "fedft"})
        cmd_train(config, tmp_path / "run")
        result = cmd_compare([tmp_path / "run"])
        assert result["summaries"][0]["mode"] == "fedft"
        assert "n/a" in result["text"]

    def test_mismatched_worlds_refused(self, tmp_path):
        cmd_train(tiny_config(), tmp_path / "a")
        other = tiny_config(env_overrides={"n_devices": 6, "select_k": 2})
        cmd_train(other, tmp_path / "b")
        with pytest.raises(ValueError):
            cmd_compare([tmp_path / "a", tmp_path / "b"])

    def test_csv_output(self, tmp_path):
        cmd_train(tiny_config(), tmp_path / "run")
        out = tmp_path / "cmp.csv"
        cmd_compare([tmp_path / "run"], out_path=out)
        assert out.read_text().startswith("run_a,run_b,delay_ratio")


class TestPlots:
    def test_polyline_embeds_exact_series(self):
        xs = [0.0, 100.0]
        ys = [-3.5, -1.25]
        svg = polyline_svg(xs, ys, "x", "y", "t")
        meta = json.loads(svg.split("<metadata>")[1].split("</metadata>")[0])
        assert meta["x"] == [repr(x) for x in xs]
        assert meta["y"] == [repr(y) for y in ys]
        points = svg.split('polyline points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_export_creates_four_files_with_exact_series(self, tmp_path):
        cmd_train(tiny_config(), tmp_path / "run")
        written = cmd_export_plots([tmp_path / "run"])
        assert len(written) == 4
        import csv
        with open(tmp_path / "run" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        for path in written:
            metric = path.stem
            meta = json.loads(path.read_text().split("<metadata>")[1]
                              .split("</metadata>")[0])
            expected = [repr(float(r[metric])) for r in rows]
            assert meta["y"] == expected

    def test_empty_metrics_skipped(self, tmp_path, capsys):
        cmd_train(tiny_config(total_steps=0), tmp_path / "run")
        written = cmd_export_plots([tmp_path / "run"])
        assert written == []
        assert "skipping" in capsys.readouterr().out


class TestEvalCommand:
    @pytest.mark.parametrize("kind", ["sabppo", "iterrl", "happo", "random",
                                      "fedft"])
    def test_eval_reproduces_final_metrics(self, kind, tmp_path):
        config = tiny_config(agent=kind)
        result = cmd_train(config, tmp_path / "run")
        trace = (tmp_path / "run" / "rounds.jsonl").read_bytes()
        row = cmd_eval(tmp_path / "run")
        assert row == result.final_metrics
        assert (tmp_path / "run" / "rounds.jsonl").read_bytes() == trace
        assert (tmp_path / "run" / "eval.json").exists()

    @pytest.mark.parametrize("episodes", [-1, 0])
    def test_fewer_than_one_episode_rejected(self, episodes, tmp_path,
                                             capsys):
        config = tiny_config(agent="random", total_steps=20, eval_interval=10)
        cmd_train(config, tmp_path / "run")
        with pytest.raises(ValueError, match="episodes"):
            evaluate(config, build_agent(config), episodes=episodes)
        trace = (tmp_path / "run" / "rounds.jsonl").read_bytes()
        with pytest.raises(ValueError, match="episodes"):
            cmd_eval(tmp_path / "run", episodes=episodes)
        rc = cli.main(["eval", "--run", str(tmp_path / "run"),
                       "--episodes", str(episodes)])
        assert rc == 2 and "episodes" in capsys.readouterr().err
        assert (tmp_path / "run" / "rounds.jsonl").read_bytes() == trace
        assert not (tmp_path / "run" / "eval.json").exists()


class TestEvalReplay:
    """``evaluate`` on a shared env draws each eval seed's channel at its
    first reset and replays it after; outputs equal those of fresh envs."""

    @staticmethod
    def count_channel_advances(monkeypatch):
        """Rounds each ``World.advance_channel`` call advances, in order."""
        calls = []
        advance = World.advance_channel
        monkeypatch.setattr(
            World, "advance_channel",
            lambda world, out, **kwargs: calls.append(len(out))
            or advance(world, out, **kwargs))
        return calls

    @staticmethod
    def evaluations(config, agents, envs, tmp_path, name):
        out = []
        for i, (agent, env) in enumerate(zip(agents, envs)):
            trace = tmp_path / f"{name}{i}.jsonl"
            row = evaluate(config, agent, env=env, trace_path=trace)
            out.append((row, trace.read_bytes()))
        return out

    @pytest.mark.parametrize("mode", ["fedpeat", "fedpeft", "fedft"])
    @pytest.mark.parametrize("kind", ["sabppo", "random"])
    def test_calls_on_one_env_match_fresh_envs(self, kind, mode, tmp_path,
                                               monkeypatch):
        config = tiny_config(agent=kind, env_overrides={"mode": mode})
        # learners of other seeds act differently on each replayed channel
        agents = [build_agent(dataclasses.replace(config, seed=s))
                  for s in range(3)]
        fresh = self.evaluations(config, agents,
                                 [AdaptiveFedEnv(config.env) for _ in agents],
                                 tmp_path, "fresh")
        calls = self.count_channel_advances(monkeypatch)
        env = AdaptiveFedEnv(config.env)
        shared = self.evaluations(config, agents, [env] * 3, tmp_path, "shared")
        assert shared == fresh
        assert sum(calls) == config.eval_episodes * config.env.rounds
        with pytest.raises(ValueError, match="read-only"):
            env.world.gains[0] = 1.0  # a replayed recording
        if kind == "sabppo":
            assert fresh[0] != fresh[1]

    def test_interrupted_episode_keeps_its_channel(self, tmp_path,
                                                   monkeypatch):
        self.assert_stopped_episode_is_replayed(tiny_config(), 3, tmp_path,
                                                monkeypatch)

    def test_episode_stopped_past_a_chunk_keeps_its_channel(self, tmp_path,
                                                            monkeypatch):
        # the stop falls in the episode's second chunk of CHUNK rounds
        config = tiny_config(env_overrides={"rounds": 2 * CHUNK + 3})
        self.assert_stopped_episode_is_replayed(config, CHUNK + 3, tmp_path,
                                                monkeypatch)

    def assert_stopped_episode_is_replayed(self, config, stop, tmp_path,
                                           monkeypatch):
        """An eval episode stopped at round ``stop`` has kept its seed's
        whole channel, drawn at reset: a later ``evaluate`` on the same env
        draws none of that seed's rounds again and equals fresh envs."""
        agent = build_agent(config)

        class Stop(Exception):
            pass

        class StopsAtRound:
            acted = 0

            def act(self, obs, greedy=False):
                if self.acted == stop:
                    raise Stop
                self.acted += 1
                return agent.act(obs, greedy=greedy)

        env = AdaptiveFedEnv(config.env)
        with pytest.raises(Stop):
            evaluate(config, StopsAtRound(), env=env)
        assert env.round_index == stop
        (kept,) = env._channels.values()
        assert kept.shape == (config.env.rounds + 1, config.env.n_devices)
        calls = self.count_channel_advances(monkeypatch)
        got = self.evaluations(config, [agent], [env], tmp_path, "shared")
        # only the episodes after the stopped one draw their channels
        assert sum(calls) == (config.eval_episodes - 1) * config.env.rounds
        assert got == self.evaluations(config, [agent],
                                       [AdaptiveFedEnv(config.env)],
                                       tmp_path, "fresh")

    def test_training_resets_simulate_and_keep_nothing(self, monkeypatch):
        env = AdaptiveFedEnv(tiny_config().env)
        calls = self.count_channel_advances(monkeypatch)
        episodes = []
        for _ in range(2):
            obs, done = [env.reset(seed=11)], False
            while not done:
                obs_i, _, done = env.step(env.decode_branch_actions(
                    [0, 1], [0, 0], [0, 0], [0, 0]))
                obs.append(obs_i)
            episodes.append(np.array(obs))
        assert sum(calls) == 2 * env.params.rounds
        assert np.array_equal(episodes[0], episodes[1])
        assert env._channels == {}


class TestCli:
    def test_print_config(self, capsys):
        assert cli.main(["print-config", "--set", "env.n_devices=3",
                         "--set", "env.select_k=2"]) == 0
        printed = yaml.safe_load(capsys.readouterr().out)
        assert printed["env"]["n_devices"] == 3

    def test_train_and_compare_via_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(), cfg_path)
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        rc = cli.main(["compare", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run complete" in out
        assert "delay_ratio" in out

    def test_invalid_config_exits_with_diagnostic(self, tmp_path, capsys):
        rc = cli.main(["train", "--set", "agent=bogus",
                       "--run-dir", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["train", "--run-dir", "{path}"],
        ["train", "--run-dir", "{path}", "--resume"],
        ["eval", "--run", "{path}"],
        ["compare", "{path}"],
    ])
    def test_run_path_naming_a_file_exits_naming_it(self, tmp_path, capsys,
                                                     args):
        path = tmp_path / "not-a-run"
        path.write_text("x")
        rc = cli.main([a.format(path=path) for a in args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert path.read_text() == "x"

    def test_config_path_naming_a_directory_exits_naming_it(self, tmp_path,
                                                            capsys):
        assert cli.main(["print-config", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    @pytest.mark.parametrize("override,field", [
        ("env.pathloss_exponent=7", "pathloss_exponent"),
        ("env.rician_k=-1", "rician_k"),
        ("env.power_budget=0", "power_budget"),
        ("env.bandwidth_budget_range=[0, 2.0e+10]", "bandwidth_budget_range"),
        ("env.total_params=0", "total_params"),
        ("env.adapter_top_layers=22", "adapter_top_layers"),
        ("env.noise_dbm_per_hz=nan", "noise_dbm_per_hz"),
        ("env.data_size_range=[0, 350]", "data_size_range"),
        ("env.memory_capacity_range=[0, 8.0e+9]", "memory_capacity_range"),
        ("env.compute_speed_range=[1.5e+12, 3.0e+11]", "compute_speed_range"),
        ("env.quad_c=-100", "quad_c"),
        ("env.mode=fedavg", "mode"),
        ("env.n_devices=ten", "n_devices"),
        ("seed=-1", "seed"),
    ])
    def test_bad_world_setting_exits_before_the_run_directory(
            self, tmp_path, capsys, override, field):
        run_dir = tmp_path / "run"
        rc = cli.main(["train", "--set", override, "--run-dir", str(run_dir)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not run_dir.exists()

    def test_config_with_critic_target_sync_exits_naming_the_key(
            self, tmp_path, capsys):
        data = config_to_dict(tiny_config(total_steps=50))
        data["ppo"]["target_sync"] = 512
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(data))
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_path),
                         "--run-dir", str(run_dir)]) == 2
        assert "target_sync" in capsys.readouterr().err
        assert cli.main(["train", "--set", "ppo.target_sync=1",
                         "--run-dir", str(run_dir)]) == 2
        assert "ppo.target_sync" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_resume_with_other_device_count_exits_naming_the_key(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(total_steps=50), cfg_path)
        args = ["train", "--config", str(cfg_path),
                "--run-dir", str(tmp_path / "run")]
        assert cli.main(args) == 0
        rc = cli.main(args + ["--resume", "--set", "env.n_devices=5"])
        assert rc == 2
        assert "actor0/net0/layer0/w" in capsys.readouterr().err

    def test_resume_with_other_agent_kind_exits_naming_the_key(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(total_steps=50), cfg_path)
        args = ["train", "--config", str(cfg_path),
                "--run-dir", str(tmp_path / "run")]
        assert cli.main(args) == 0
        rc = cli.main(args + ["--resume", "--set", "agent=iterrl"])
        assert rc == 2
        assert "actor1/net0/layer0/w" in capsys.readouterr().err

    def test_export_plots_via_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(), cfg_path)
        cli.main(["train", "--config", str(cfg_path),
                  "--run-dir", str(tmp_path / "run")])
        rc = cli.main(["export-plots", str(tmp_path / "run")])
        assert rc == 0
        assert "eval_reward.svg" in capsys.readouterr().out


class TestBlasThreads:
    def test_checkpoint_does_not_depend_on_the_blas_thread_count(
            self, tmp_path):
        # a (64, 601) x (601, 64) product of the IterRL update gives other
        # bits on two threads than on one; train pins one
        if run_module.pin_blas() == "unpinned":
            pytest.skip("numpy's bundled OpenBLAS has no thread setter here")
        src = str(Path(run_module.__file__).resolve().parents[2])
        overrides = ["agent=iterrl", "seed=1", "env.n_devices=200",
                     "env.select_k=20", "env.rounds=10", "total_steps=64",
                     "eval_interval=64", "eval_episodes=1", "ppo.segment=64",
                     "ppo.minibatch=64", "ppo.epochs=1"]
        digests = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items()
                   if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(
                [src, *filter(None, [env.get("PYTHONPATH")])])
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            run_dir = tmp_path / f"threads_{threads}"
            subprocess.run(
                [sys.executable, "-m", "fedemu.harness.cli", "train",
                 "--run-dir", str(run_dir),
                 *[a for o in overrides for a in ("--set", o)]],
                env=env, check=True, capture_output=True)
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["blas"]["threads"] == 1
            digests.append((run_dir / "checkpoint.npz").read_bytes())
        assert digests[0] == digests[1]
