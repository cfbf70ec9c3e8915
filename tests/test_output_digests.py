import importlib.util
import math
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "output_digests", _ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_fixed_configs_cover_every_agent_and_mode():
    from fedemu.harness.config import config_from_dict

    configs = output_digests.fixed_configs()
    tiny = [name for name in configs if name.startswith("tiny-")]
    assert len(tiny) == 15
    assert {configs[n]["env"]["mode"] for n in tiny} == {
        "fedpeat", "fedpeft", "fedft"}
    assert "multi-update-sabppo" in configs and "mid-iterrl-s2" in configs
    for agent in ("sabppo", "iterrl", "happo"):
        config = configs[f"multi-update-{agent}"]
        assert config["total_steps"] >= 2 * config["ppo"]["segment"]
    for agent in ("sabppo", "random"):
        env = configs[f"all-selected-{agent}"]["env"]
        assert env["n_devices"] == env["select_k"] == 5
    assert configs["tiny-sabppo-fedpeat"]["env"]["n_devices"] == 4
    for agent in ("sabppo", "random"):
        grid = configs[f"grid-unsorted-{agent}"]["env"]["retention_grid"]
        assert grid != sorted(grid) and len(set(grid)) < len(grid)
        assert configs[f"zero-epochs-{agent}"]["env"]["local_epochs"] == 0
    from fedemu.env import CHUNK

    for agent in ("sabppo", "random"):
        config = configs[f"long-episode-{agent}"]
        rounds, steps = config["env"]["rounds"], config["total_steps"]
        # episodes cross chunk boundaries, end on a short chunk, and the
        # run stops mid-episode
        assert rounds > 2 * CHUNK and rounds % CHUNK and steps % rounds
    for config in configs.values():
        config_from_dict(config)
    evals = output_digests.eval_runs()
    assert set(evals.values()) == {"tiny-sabppo-fedpeat", "long-episode-sabppo",
                                   "wide-rollout-s2"}
    assert not set(evals) & set(configs)


def test_compare_names_differing_files(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "metrics.csv").write_text("step\n0\n")
        (tmp_path / side / "rounds.jsonl").write_text(side)
    a = output_digests.digests(tmp_path / "a")
    b = output_digests.digests(tmp_path / "b")
    assert a["checkpoint.npz"] is None
    assert output_digests.compare(a, b) == ["rounds.jsonl"]


def test_npz_differences_count_arrays_and_relative_change(tmp_path):
    same = np.arange(6.0).reshape(2, 3)
    np.savez(tmp_path / "a.npz", w=np.array([1.0, -4.0]), b=np.array([0.5]),
             c=same)
    np.savez(tmp_path / "b.npz", w=np.array([1.0, -4.0 + 2.0**-38]),
             b=np.array([0.5 + 2.0**-30]), c=same.copy())
    count, ratio = output_digests.npz_differences(tmp_path / "a.npz",
                                                  tmp_path / "b.npz")
    assert count == 2 and ratio == 2.0**-29
    assert output_digests.npz_differences(tmp_path / "a.npz",
                                          tmp_path / "a.npz") == (0, 0.0)
    np.savez(tmp_path / "c.npz", w=np.array([1.0, -4.0]), b=np.array([0.5]))
    assert output_digests.npz_differences(tmp_path / "a.npz",
                                          tmp_path / "c.npz") == (1, math.inf)


def test_checkout_against_itself_is_identical(capsys, monkeypatch):
    tiny = output_digests.fixed_configs()["tiny-random-fedft"]
    monkeypatch.setattr(output_digests, "fixed_configs",
                        lambda: {"tiny-random-fedft": tiny})
    monkeypatch.setattr(output_digests, "eval_runs",
                        lambda: {"eval-tiny-random-fedft": "tiny-random-fedft"})
    rc = output_digests.main(["--parent", str(_ROOT)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "tiny-random-fedft: identical" in out
    assert "eval.json=None" in out.splitlines()[0]
    eval_line = out.splitlines()[1]
    assert eval_line.startswith("eval-tiny-random-fedft: identical")
    assert "eval.json=None" not in eval_line
    assert "2 of 2 runs identical" in out
    lines = sum(len(path.read_text().splitlines())
                for path in (_ROOT / "src").rglob("*.py"))
    assert out.splitlines()[-1] == (f"src/ lines: parent {lines}, "
                                    f"change {lines}")
