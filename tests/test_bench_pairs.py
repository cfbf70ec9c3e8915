import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_PARENT = Path("/nonexistent/parent")


def test_parse_seeds():
    assert bench_pairs.parse_seeds("12-14,20") == [12, 13, 14, 20]
    assert bench_pairs.parse_seeds("3") == [3]


def _result(**values):
    return {"metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def test_table_counts_wins_by_direction():
    pairs = [(_result(rate=100.0, rss=50.0), _result(rate=150.0, rss=40.0)),
             (_result(rate=100.0, rss=50.0), _result(rate=90.0, rss=60.0)),
             (_result(rate=100.0, rss=50.0), _result(rate=200.0, rss=45.0))]
    lines = bench_pairs.table({"w": pairs}, {"rate": "higher",
                                             "rss": "lower"}).splitlines()
    assert lines[2] == "| w | rate | 100 [100, 100] | 150 [120, 175] | 1.5x | 2/3 |"
    assert lines[3] == "| w | rss | 50.0 [50.0, 50.0] | 45.0 [42.5, 52.5] | 0.9x | 2/3 |"


def test_failed_run_raises(tmp_path):
    with pytest.raises(RuntimeError, match="failed"):
        bench_pairs.run_once(tmp_path, "mid-iterrl", 1, 1.0, 0)


def test_several_workloads_in_one_table(capsys, monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((workload, seed, "parent" if checkout == _PARENT
                      else "change"))
        rate = 100.0 if checkout == _PARENT else 100.0 + 20.0 * seed
        return {"correct": True, "failed": 0, "attempted": 1,
                **_result(train_steps_per_s=rate)}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    rc = bench_pairs.main(["--parent", str(_PARENT), "--workload",
                           "desk-sabppo,wide-rollout", "--seeds", "1-2"])
    assert rc == 0
    # each workload alternates which side runs first, seed by seed
    assert calls == [("desk-sabppo", 1, "parent"), ("desk-sabppo", 1, "change"),
                     ("wide-rollout", 1, "parent"), ("wide-rollout", 1, "change"),
                     ("desk-sabppo", 2, "change"), ("desk-sabppo", 2, "parent"),
                     ("wide-rollout", 2, "change"), ("wide-rollout", 2, "parent")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        "| desk-sabppo | train_steps_per_s | 100 [100, 100] | 130 [125, 135] "
        "| 1.3x | 2/2 |",
        "| wide-rollout | train_steps_per_s | 100 [100, 100] | 130 [125, 135] "
        "| 1.3x | 2/2 |"]
