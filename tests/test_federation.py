import copy
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedemu.agents import RandomPolicy, default_branches
from fedemu.env import AdaptiveFedEnv, EnvParams
from fedemu.federation import (
    ActionBundle,
    ActionDecodeError,
    FederationMode,
    RoundOutcome,
    RoundTraceWriter,
    run_round,
)
from fedemu.simcore import (
    DeviceState,
    emulator_from_retention,
    final_perplexity,
    perplexity_step,
)
from fedemu.wireless import (
    channel_gain,
    shannon_rate,
    step_mobility,
    transmission_delay,
)


def make_env(mode="fedpeat", n=4, k=2, seed=0, **overrides):
    params = dataclasses.replace(EnvParams(), n_devices=n, select_k=k,
                                 rounds=10, mode=mode, **overrides)
    env = AdaptiveFedEnv(params)
    env.reset(seed=seed)
    return env


def bundle(selection, retentions, levels=None):
    k = len(selection)
    levels = levels or tuple([1] * k)
    return ActionBundle(selection=tuple(selection),
                        bandwidth_levels=tuple(levels),
                        power_levels=tuple(levels),
                        retentions=tuple(retentions))


def spread(world, retentions, mode=FederationMode.FEDPEAT):
    """run_round() on a {device: retention} mapping."""
    return run_round(world, bundle(list(retentions), retentions.values()),
                     mode)


class TestDisseminate:
    def test_first_assignment_counts_as_exchange(self):
        env = make_env()
        world = env.world
        res = spread(world, {0: 0.5, 1: 0.5})
        assert res.exchanges_this_round[0] and res.exchanges_this_round[1]
        assert world.exchange_count[0] == 1

    def test_same_retention_is_free(self):
        env = make_env()
        world = env.world
        spread(world, {0: 0.5})
        res = spread(world, {0: 0.5})
        assert not res.exchanges_this_round[0]
        assert world.exchange_count[0] == 1

    def test_retention_change_is_counted(self):
        env = make_env()
        world = env.world
        spread(world, {0: 0.5})
        res = spread(world, {0: 0.75})
        assert res.exchanges_this_round[0]
        assert world.exchange_count[0] == 2

    def test_fedft_ships_everything_every_round(self):
        env = make_env(mode="fedft")
        world = env.world
        for _ in range(3):
            res = spread(world, {0: 1.0}, FederationMode.FEDFT)
            assert res.exchanges_this_round[0]
            assert res.payload_bytes[0] == 2_630_000_000

    def test_memory_used_updated(self):
        env = make_env()
        world = env.world
        for _ in range(2):  # assigned, then kept
            res = spread(world, {0: 0.5})
            emulator = emulator_from_retention(world.model, world.adapter_spec,
                                               0.5)
            expected = emulator.bytes + world.adapter_spec.bytes
            assert res.footprints[0] == expected


class TestLocalTuning:
    def test_zero_epochs_unchanged(self):
        env = make_env(local_epochs=0)
        world = env.world
        before = world.perplexity.copy()
        spread(world, {0: 0.5, 1: 0.5})
        assert world.perplexity.tolist() == before.tolist()
        assert world.server_perplexity == world.surrogate.p_init

    def test_fixed_point_at_optimum(self):
        env = make_env(local_epochs=3)
        world = env.world
        target = final_perplexity(world.surrogate, 0.5)
        world.perplexity[:] = target
        at_optimum = world.perplexity.copy()
        spread(world, {0: 0.5, 1: 0.5})
        assert np.allclose(world.perplexity, at_optimum)

    def test_perplexity_follows_surrogate_step(self):
        env = make_env()
        world = env.world
        target = final_perplexity(world.surrogate, 0.5)
        expected = perplexity_step(world.perplexity[0], target,
                                   world.surrogate.convergence_rate)
        spread(world, {0: 0.5})
        assert world.perplexity[0] == pytest.approx(expected, abs=1e-12)


class TestRunRound:
    def test_server_only_aggregation(self):
        env = make_env()
        world = env.world
        empty = ActionBundle(selection=(), bandwidth_levels=(),
                             power_levels=(), retentions=())
        outcome = run_round(world, empty, FederationMode.FEDPEAT)
        # only the server trained
        assert world.server_perplexity < world.surrogate.p_init
        assert outcome.perplexities.tolist() == [world.surrogate.p_init] * 4
        assert outcome.q.tolist() == [0.0] * world.n_devices

    def test_unchanged_retentions_transmit_nothing(self):
        env = make_env()
        world = env.world
        act = bundle([0, 1], (0.5, 0.5))
        run_round(world, act, FederationMode.FEDPEAT)
        outcome = run_round(world, act, FederationMode.FEDPEAT)
        assert outcome.payload_bytes.sum() == 0.0
        assert outcome.exchanges_this_round.sum() == 0

    def test_q_decomposition_against_wireless_oracle(self):
        env = make_env(mode="fedft")
        world = env.world
        gains = world.gains.copy()
        act = bundle([0, 1], (1.0, 1.0), levels=(2, 1))
        outcome = run_round(world, act, FederationMode.FEDFT)
        total_b = world.channel.bandwidth_budget
        total_p = world.channel.power_budget
        for slot, dev in enumerate([0, 1]):
            share = [2, 1][slot] / 3
            rate = shannon_rate(total_b * share, total_p * share, gains[dev],
                                world.channel.noise_psd)
            assert outcome.rates[dev] == pytest.approx(rate, rel=1e-9)
            d_trans = transmission_delay(True, world.model.total_bytes, rate)
            d_comp = (world.epochs * world.profile.data_size[dev]
                      * world.model.total_params
                      / world.profile.compute_speed[dev])
            assert outcome.q[dev] == pytest.approx(d_trans + d_comp, rel=1e-9)

    def test_fedft_max_q_dominated_by_full_transfer(self):
        env = make_env(mode="fedft")
        world = env.world
        act = bundle([0, 1], (1.0, 1.0))
        outcome = run_round(world, act, FederationMode.FEDFT)
        sel_q = outcome.q[[0, 1]]
        d_trans = [transmission_delay(True, world.model.total_bytes,
                                      outcome.rates[d]) for d in (0, 1)]
        assert outcome.max_q == pytest.approx(max(sel_q))
        assert max(d_trans) / outcome.max_q > 0.5

    def test_fedpeft_exchanges_stop_after_first_round(self):
        env = make_env(mode="fedpeft")
        world = env.world
        total = 0
        for r in range(4):
            act = bundle([0, 1], (0.25, 0.75))  # retentions ignored in PEFT
            outcome = run_round(world, act, FederationMode.FEDPEFT)
            total += int(outcome.exchanges_this_round.sum())
            assert world.retention[0] == 1.0
        assert total == 2  # one initial exchange per device, never again

    def test_server_holds_30_percent_of_data(self):
        env = make_env(n=10, k=5)
        world = env.world
        device_total = world.profile.data_size.sum()
        server = world.server.data_size
        assert server / (server + device_total) == pytest.approx(0.3, abs=0.01)

    def test_json_row_roundtrips(self):
        env = make_env()
        outcome = run_round(env.world, bundle([0, 1], (0.5, 0.5)),
                            FederationMode.FEDPEAT)
        row = json.loads(trace_lines([outcome])[0])
        assert row["round"] == 0
        assert row["mode"] == "fedpeat"
        assert row["selection"] == [0, 1]
        assert len(row["q"]) == env.world.n_devices

    def test_json_row_matches_reference_over_an_episode(self):
        params = dataclasses.replace(EnvParams(), n_devices=60, select_k=8,
                                     rounds=40)
        env = AdaptiveFedEnv(params)
        policy = RandomPolicy(default_branches(60, 8, params.levels,
                                               len(params.retention_grid)),
                              seed=3)
        buf = io.StringIO()
        writer = RoundTraceWriter(buf)
        obs, done, rows = env.reset(seed=3), False, 0
        while not done:
            step = policy.act(obs)
            obs, _, done = env.step(
                env.decode_branch_actions(*step.branch_actions))
            outcome = env.last_outcome
            writer.write(outcome)
            assert buf.getvalue().splitlines()[-1] == reference_row(outcome)
            rows += 1
        assert rows == 40

    def test_json_row_bytes(self):
        outcome = RoundOutcome(
            round_index=3, mode=FederationMode.FEDPEAT, selection=(0, 2),
            q=np.array([0.1234567891234, 0.0, 2.0 / 3.0]),
            server_q=0.4567891234567,
            perplexities=np.array([28.71582142668, 30.0, 29.1234565]),
            server_perplexity=27.5,
            exchanges_this_round=np.array([1, 0, 0]),
            payload_bytes=np.array([1.5e8, 0.0, 0.0]),
            footprints=np.array([1e9, 2e9]), rates=np.array([1e6, 0.0, 2e6]))
        buf = io.StringIO()
        RoundTraceWriter(buf).write(outcome)
        assert buf.getvalue() == (
            '{"round": 3, "mode": "fedpeat", "selection": [0, 2], '
            '"q": [0.123456789, 0.0, 0.666666667], "server_q": 0.456789123, '
            '"perplexities": [28.715821, 30.0, 29.123456], '
            '"server_perplexity": 27.5, "exchanges": [1, 0, 0], '
            '"payload_bytes": [150000000.0, 0.0, 0.0]}\n')


def reference_row(o):
    """The trace line of one outcome: json.dumps of the full row dict."""
    return json.dumps({
        "round": o.round_index,
        "mode": o.mode.value,
        "selection": list(o.selection),
        "q": [round(x, 9) for x in o.q.tolist()],
        "server_q": round(o.server_q, 9),
        "perplexities": [round(x, 6) for x in o.perplexities.tolist()],
        "server_perplexity": round(o.server_perplexity, 6),
        "exchanges": o.exchanges_this_round.tolist(),
        "payload_bytes": o.payload_bytes.tolist(),
    })


def trace_lines(outcomes):
    """Lines one RoundTraceWriter writes for ``outcomes``, in order."""
    buf = io.StringIO()
    writer = RoundTraceWriter(buf)
    for outcome in outcomes:
        writer.write(outcome)
    return buf.getvalue().splitlines()


class TestRoundTraceWriter:
    @pytest.mark.parametrize("mode", ["fedpeat", "fedpeft", "fedft"])
    @pytest.mark.parametrize("n,k", [(12, 3), (5, 5)])
    def test_matches_reference_across_episodes(self, mode, n, k):
        # one writer over two episodes, as evaluate() uses it; the reset
        # puts every perplexity back to p_init
        params = dataclasses.replace(EnvParams(), n_devices=n, select_k=k,
                                     rounds=15, mode=mode)
        env = AdaptiveFedEnv(params)
        policy = RandomPolicy(default_branches(n, k, params.levels,
                                               len(params.retention_grid)),
                              seed=1)
        outcomes = []
        for seed in (4, 5):
            obs, done = env.reset(seed=seed), False
            assert (env.world.perplexity == params.p_init).all()
            while not done:
                step = policy.act(obs)
                obs, _, done = env.step(
                    env.decode_branch_actions(*step.branch_actions))
                outcomes.append(env.last_outcome)
        assert outcomes[-1].round_index == 14
        assert trace_lines(outcomes) == [reference_row(o) for o in outcomes]

    def test_non_finite_and_signed_zero(self):
        def outcome(round_index, perplexities, q):
            n = len(perplexities)
            return RoundOutcome(
                round_index=round_index, mode=FederationMode.FEDPEFT,
                selection=(1, 2), q=np.array(q), server_q=float("inf"),
                perplexities=np.array(perplexities),
                server_perplexity=float("nan"),
                exchanges_this_round=np.array([0, 1, 0, 0]),
                payload_bytes=np.array([0.0, 2.5e7, 0.0, 0.0]),
                footprints=np.ones(2), rates=np.ones(n))

        outcomes = [
            outcome(0, [30.0, 0.0, float("nan"), 29.0],
                    [0.0, 1.0, float("inf"), 0.0]),
            outcome(1, [30.0, -0.0, float("nan"), float("-inf")],
                    [0.0, float("nan"), -0.0, 0.0]),
            outcome(2, [30.0, 0.0, 1e-7, float("-inf")],
                    [0.0, 1e-10, -1e-10, 0.0]),
        ]
        assert trace_lines(outcomes) == [reference_row(o) for o in outcomes]


class TestActionBundle:
    def test_duplicate_selection_rejected(self):
        with pytest.raises(ActionDecodeError, match="selection"):
            ActionBundle(selection=(1, 1), bandwidth_levels=(1, 1),
                         power_levels=(1, 1), retentions=(0.5, 0.5))

    def test_misaligned_fields_rejected(self):
        with pytest.raises(ActionDecodeError, match="bandwidth_levels"):
            ActionBundle(selection=(0, 1), bandwidth_levels=(1,),
                         power_levels=(1, 1), retentions=(0.5, 0.5))


speed_ranges = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.0, 80.0), st.floats(0.0, 80.0)).map(
        lambda r: (min(r), max(r))))


class TestAdvanceChannel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           speed_range=speed_ranges, pause=st.sampled_from([0, 2]),
           rounds=st.integers(1, 12))
    def test_arrays_match_scalar_reference(self, seed, n, speed_range, pause,
                                           rounds):
        env = make_env(n=n, k=1, seed=seed, speed_range=speed_range,
                       waypoint_pause=pause)
        world = env.world
        mobility_rng = copy.deepcopy(world.mobility_rng)
        fading_rng = copy.deepcopy(world.fading_rng)
        states = [DeviceState(position=p.copy()) for p in world.position]
        for _ in range(rounds):
            world.advance_channel()
            gains = []
            for state in states:
                pos = step_mobility(state, world.mobility, mobility_rng)
                dist = float(np.hypot(pos[0], pos[1]))
                gains.append(channel_gain(dist, world.channel, fading_rng))
            assert np.array_equal(world.position, [s.position for s in states])
            assert np.array_equal(world.waypoint, [
                np.full(2, np.nan) if s.waypoint is None else s.waypoint
                for s in states], equal_nan=True)
            assert world.pause_left.tolist() == [s.pause_left for s in states]
            assert world.leg_speed.tolist() == [s.leg_speed for s in states]
            np.testing.assert_allclose(world.gains, gains, rtol=1e-12, atol=0)
        assert (world.mobility_rng.bit_generator.state
                == mobility_rng.bit_generator.state)
        assert (world.fading_rng.bit_generator.state
                == fading_rng.bit_generator.state)
