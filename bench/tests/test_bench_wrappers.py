import sys

import pytest

from tracing import COUNT_TARGETS, LEARNER_ONLY, SPAN_TARGETS
from worker import run_rep


def tiny_config(agent):
    return {"agent": agent, "seed": 3, "total_steps": 20, "eval_interval": 10,
            "eval_episodes": 1,
            "env": {"n_devices": 4, "select_k": 2, "rounds": 5},
            "ppo": {"segment": 10, "minibatch": 5}}


def fedemu_bindings():
    """Identity of every module- and class-level binding in fedemu."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fedemu" or name.startswith("fedemu.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


@pytest.mark.parametrize("agent", ["sabppo", "iterrl", "random"])
def test_every_wrapper_fires_and_originals_return(agent, tmp_path):
    import fedemu.harness.run  # noqa: F401  (load every module to snapshot)

    before = fedemu_bindings()
    result = run_rep(tiny_config(agent), tmp_path / "run", t0=0.0, traced=True)
    after = fedemu_bindings()

    assert result["failed"] == 0, result["problems"]
    trace = result["trace"]
    assert trace["silent_wrappers"] == []
    names = {name for name, _, _ in SPAN_TARGETS + COUNT_TARGETS}
    for name in names:
        fired = trace["counts"].get(name, 0)
        if agent == "random" and name in LEARNER_ONLY:
            assert fired == 0, name
        else:
            assert fired > 0, name
    # (copy.deepcopy may add a __slotnames__ cache; nothing may go or move)
    moved = [key for key in before if after.get(key) is not before[key]]
    assert moved == []


def test_traced_run_matches_untraced_outputs(tmp_path):
    plain = run_rep(tiny_config("sabppo"), tmp_path / "a", t0=0.0, traced=False)
    traced = run_rep(tiny_config("sabppo"), tmp_path / "b", t0=0.0, traced=True)
    assert plain["metrics_sha256"] == traced["metrics_sha256"]
    assert plain["attempted"] == traced["attempted"] == 20 + 3 * 5 + 2
