import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# as long as this checkout's path, which the change side defaults to
_PARENT = Path("/" + "p" * (len(str(bench_pairs.ROOT)) - 1))


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


def _fake_run_once(calls):
    def fake_run_once(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == _PARENT else "change"
        calls.append((workload, seed, side))
        rate = 100.0 if side == "parent" else 100.0 + 20.0 * seed
        return {"correct": True, "failed": 0, "attempted": 1,
                "host": {"git_sha": side}, **_result(train_steps_per_s=rate)}
    return fake_run_once


def test_several_workloads_in_one_table(capsys, monkeypatch):
    calls = []

    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once(calls))
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


def _stub_tier1(monkeypatch, status=0):
    """Swap the tier-1 suite for a command that prints where and how it ran
    and exits with ``status``."""
    monkeypatch.setattr(bench_pairs, "TIER1", [
        sys.executable, "-c",
        "import os, sys; print('collecting'); print('3 passed', os.getcwd(), "
        "os.environ['PYTHONPATH'], os.environ['OPENBLAS_NUM_THREADS']); "
        f"sys.exit({status})"])


def test_out_records_hosts_and_every_pair(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once([]))
    _stub_tier1(monkeypatch)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--parent", str(_PARENT), "--workload",
                             "mid-iterrl", "--seeds", "1-3", "--seconds",
                             "5", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["table"] == capsys.readouterr().out.strip()
    assert record["seconds"] == 5 and record["trace"] == 0
    pairs = record["pairs"]["mid-iterrl"]
    assert [p["seed"] for p in pairs] == [1, 2, 3]
    for p in pairs:
        assert p["parent"]["host"] == {"git_sha": "parent"}
        assert p["change"]["host"] == {"git_sha": "change"}
        assert (p["change"]["metrics"]["train_steps_per_s"]["value"]
                == 100.0 + 20.0 * p["seed"])


def test_checkout_paths_of_unequal_length_are_refused(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once(calls))
    rc = bench_pairs.main(["--parent", str(_PARENT) + "x", "--workload",
                           "mid-iterrl", "--seeds", "1"])
    assert rc == 2
    assert calls == []
    assert "differ in length" in capsys.readouterr().err


@pytest.mark.parametrize("status", [0, 1])
def test_out_records_one_timed_tier1_run_of_the_change(tmp_path, capsys,
                                                       monkeypatch, status):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once([]))
    _stub_tier1(monkeypatch, status)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--parent", str(_PARENT), "--workload",
                             "mid-iterrl", "--seeds", "1-2", "--out",
                             str(out)]) == 0
    tier1 = json.loads(out.read_text())["tier1"]
    root = bench_pairs.ROOT
    # run in the change checkout, on its src, with BLAS on one thread; a
    # failing suite is recorded, not raised
    assert tier1["last_line"] == f"3 passed {root} {root / 'src'} 1"
    assert tier1["returncode"] == status
    assert tier1["command"][0] == "python"
    assert tier1["command"][1:] == bench_pairs.TIER1[1:]
    assert tier1["wall_s"] >= 0
    assert tier1["host"] == {"git_sha": "change"}


def test_no_tier1_run_without_out(capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once([]))
    monkeypatch.setattr(bench_pairs, "run_tier1", lambda *args: 1 / 0)
    assert bench_pairs.main(["--parent", str(_PARENT), "--workload",
                             "mid-iterrl", "--seeds", "1"]) == 0
