import dataclasses
import json

import numpy as np
import pytest
import yaml

from fedemu.agents import PpoConfig
from fedemu.env import EnvParams
from fedemu.harness import cli
from fedemu.harness.checkpoint import load_checkpoint, save_checkpoint
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
from fedemu.harness.run import METRICS_COLUMNS, build_agent, cmd_eval, cmd_train


def tiny_config(**overrides):
    env_kw = dict(n_devices=4, select_k=2, rounds=10)
    env_kw.update(overrides.pop("env_overrides", {}))
    env = dataclasses.replace(EnvParams(), **env_kw)
    ppo = PpoConfig(segment=50, minibatch=25, epochs=2)
    base = dict(env=env, ppo=ppo, total_steps=300, eval_interval=100,
                eval_episodes=2, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# metrics.csv rows of the tiny config in test_tiny_config_golden, recorded
# before the three learners shared one PPO update
TINY_GOLDEN = {
    "sabppo": [
        (0, -402.09410001252644, -0.17604641943843333, -149.41805359308802,
         -2.5, -250.0, 28.715821426688002, -0.017604641943843324,
         1.0659849235697636, 1.0),
        (10, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
        (20, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
    ],
    "iterrl": [
        (0, -374.6939483163347, -1.9049044128466803, -149.289043903488, -3.5,
         -220.0, 28.678126617088004, -0.19049044128466802, 0.8850887447732699,
         1.4),
        (10, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
        (20, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
    ],
    "happo": [
        (0, -374.6939483163347, -1.9049044128466803, -149.289043903488, -3.5,
         -220.0, 28.678126617088004, -0.19049044128466802, 0.8850887447732699,
         1.4),
        (10, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
        (20, -308.05788127182313, -4.709572968975142, -150.84830830284798,
         -2.5, -150.0, 29.167538408448003, -0.4709572968975143,
         0.6833179969261618, 1.0),
    ],
    "random": [
        (0, -642.8069561996983, -1.6672224650935168, -150.63973373460482,
         -10.5, -480.0, 29.0346144181248, -0.1667222465093517,
         0.9355190376383838, 4.2),
        (10, -660.6284873911648, 0.3625933665952911, -149.99108075776002,
         -11.0, -500.0, 28.810346165760002, 0.0362593366595291,
         1.1679278357026164, 4.4),
        (20, -622.5734894692245, -2.1315158890389077, -150.4419735801856,
         -10.0, -460.0, 29.034317782425603, -0.21315158890389077,
         0.8810801247015305, 4.0),
    ],
    "fedft": [
        (0, -292.17182524377756, 1.416517832062472, -148.83834307584, -4.75,
         -140.0, 28.456653731840003, 0.14165178320624722, 1.2763205581159567,
         1.9),
        (10, -342.22011172989204, 1.6636611059479343, -148.88377283584, -5.0,
         -190.0, 28.440557250559998, 0.16636611059479348, 1.2972040399078772,
         2.0),
        (20, -352.4566805053813, 1.1100666971787363, -148.81674720256, -4.75,
         -200.0, 28.441475409920002, 0.11100666971787365, 1.2296754778018077,
         1.9),
    ],
}


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

    def test_overrides(self):
        config = apply_overrides(default_config(),
                                 ["env.n_devices=4", "seed=9",
                                  "ppo.entropy_coef=0.0"])
        assert config.env.n_devices == 4
        assert config.seed == 9
        assert config.ppo.entropy_coef == 0.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides(default_config(), ["env.nope=1"])


class TestTrain:
    def test_tiny_config_golden(self, tmp_path):
        env = dataclasses.replace(EnvParams(), n_devices=4, select_k=2,
                                  rounds=5)
        for agent, rows in TINY_GOLDEN.items():
            config = ExperimentConfig(
                agent=agent, env=env, ppo=PpoConfig(segment=10, minibatch=5),
                total_steps=20, eval_interval=10, seed=3)
            cmd_train(config, tmp_path / agent)
            lines = (tmp_path / agent / "metrics.csv").read_text().splitlines()
            got = [tuple(map(float, line.split(","))) for line in lines[1:]]
            assert got == [pytest.approx(row, rel=1e-9) for row in rows], agent

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
        # a target sync, so the target differs from a fresh agent's too
        agent.critics[0].target = agent.critics[0].net.clone()
        save_checkpoint(tmp_path / "ck", agent, step=50, episode=5)

        twin = build_agent(config)
        meta = load_checkpoint(tmp_path / "ck", agent=twin)
        assert meta["step"] == 50 and meta["episode"] == 5
        for a, b in zip(agent.units[0].parameters(),
                        twin.units[0].parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(agent.critics[0].target.weights,
                        twin.critics[0].target.weights):
            assert np.array_equal(a, b)
        obs = np.random.default_rng(0).standard_normal(config.env.observation_dim)
        # identical sampling stream state after restore
        x = agent.act(obs).branch_actions
        y = twin.act(obs).branch_actions
        assert all(np.array_equal(p, q) for p, q in zip(x, y))

    def test_manifest_lists_all_fields(self, tmp_path):
        config = tiny_config()
        agent = build_agent(config)
        save_checkpoint(tmp_path / "ck", agent, step=0, episode=0)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        keys = [f["key"] for f in manifest["fields"]]
        with np.load(tmp_path / "ck.npz") as data:
            assert sorted(keys) == sorted(data.files)

    def test_resume_continues_training(self, tmp_path):
        config = tiny_config(total_steps=100)
        cmd_train(config, tmp_path / "run")
        longer = dataclasses.replace(config, total_steps=200)
        result = cmd_train(longer, tmp_path / "run", resume=True)
        assert result.steps == 200


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
    def test_eval_reproduces_final_metrics(self, tmp_path):
        config = tiny_config()
        result = cmd_train(config, tmp_path / "run")
        row = cmd_eval(tmp_path / "run")
        assert row["eval_reward"] == pytest.approx(
            result.final_metrics["eval_reward"])
        assert (tmp_path / "run" / "eval.json").exists()


class TestCli:
    def test_print_config(self, capsys):
        assert cli.main(["print-config", "--set", "env.n_devices=3"]) == 0
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

    def test_export_plots_via_cli(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        save_config(tiny_config(), cfg_path)
        cli.main(["train", "--config", str(cfg_path),
                  "--run-dir", str(tmp_path / "run")])
        rc = cli.main(["export-plots", str(tmp_path / "run")])
        assert rc == 0
        assert "eval_reward.svg" in capsys.readouterr().out
