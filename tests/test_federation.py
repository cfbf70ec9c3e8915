import copy
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _mobility import DeviceState, step_mobility

from fedemu.agents import RandomPolicy, default_branches
from fedemu.env import AdaptiveFedEnv, EnvParams
from fedemu.federation import (
    ActionBundle,
    FederationMode,
    RoundOutcome,
    RoundTraceWriter,
    _number,
    _rounded,
    run_round,
)
from fedemu.simcore import (
    AdapterSpec,
    compute_delay,
    emulator_from_retention,
    final_perplexity,
    memory_footprint,
    perplexity_step,
)
from fedemu.wireless import (
    allocate_budgets,
    budget_terms,
    channel_gain,
    shannon_rate,
    transmission_delay,
)


def make_env(mode="fedpeat", n=4, k=2, seed=0, **overrides):
    params = dataclasses.replace(EnvParams(), n_devices=n, select_k=k,
                                 rounds=10, mode=mode, **overrides)
    env = AdaptiveFedEnv(params)
    env.reset(seed=seed)
    return env


def bundle(selection, columns, levels=None):
    """A joint action; bandwidth and power take ``levels`` (default 1)."""
    levels = np.array(levels or [1] * len(selection))
    return ActionBundle(selection=np.array(selection, dtype=int),
                        bandwidth_levels=levels, power_levels=levels,
                        retention_columns=np.array(columns, dtype=int))


def spread(world, retentions, mode=FederationMode.FEDPEAT):
    """run_round() on a {device: retention on the grid} mapping."""
    columns = map(world.params.retention_grid.index, retentions.values())
    return run_round(world, bundle(list(retentions), list(columns)), mode)


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
            adapter = AdapterSpec.for_model(world.params)
            emulator = emulator_from_retention(world.params, adapter, 0.5)
            expected = emulator.bytes + adapter.bytes
            assert res.footprints[0] == expected


class TestLocalTuning:
    def test_zero_epochs_unchanged(self):
        env = make_env(local_epochs=0)
        world = env.world
        before = world.perplexity.copy()
        spread(world, {0: 0.5, 1: 0.5})
        assert world.perplexity.tolist() == before.tolist()
        assert world.server_perplexity == world.params.p_init

    def test_fixed_point_at_optimum(self):
        env = make_env(local_epochs=3)
        world = env.world
        target = final_perplexity(world.params, 0.5)
        world.perplexity[:] = target
        at_optimum = world.perplexity.copy()
        spread(world, {0: 0.5, 1: 0.5})
        assert np.allclose(world.perplexity, at_optimum)

    def test_perplexity_follows_surrogate_step(self):
        env = make_env()
        world = env.world
        target = final_perplexity(world.params, 0.5)
        expected = perplexity_step(world.perplexity[0], target,
                                   world.params.convergence_rate)
        spread(world, {0: 0.5})
        assert world.perplexity[0] == pytest.approx(expected, abs=1e-12)


class TestRunRound:
    def test_server_only_aggregation(self):
        env = make_env()
        world = env.world
        outcome = run_round(world, bundle([], []), FederationMode.FEDPEAT)
        # only the server trained
        assert world.server_perplexity < world.params.p_init
        assert outcome.perplexities.tolist() == [world.params.p_init] * 4
        assert outcome.q.tolist() == [0.0] * world.n_devices

    def test_unchanged_retentions_transmit_nothing(self):
        env = make_env()
        world = env.world
        act = bundle([0, 1], (1, 1))  # the grid's 0.5
        run_round(world, act, FederationMode.FEDPEAT)
        outcome = run_round(world, act, FederationMode.FEDPEAT)
        assert outcome.payload_bytes.sum() == 0.0
        assert outcome.exchanges_this_round.sum() == 0

    def test_q_decomposition_against_wireless_oracle(self):
        env = make_env(mode="fedft")
        world = env.world
        gains = world.gains.copy()
        act = bundle([0, 1], (3, 3), levels=(2, 1))
        outcome = run_round(world, act, FederationMode.FEDFT)
        total_b = world.bandwidth_budget
        total_p = world.params.power_budget
        for slot, dev in enumerate([0, 1]):
            share = [2, 1][slot] / 3
            rate = shannon_rate(total_b * share, total_p * share, gains[dev],
                                world.params.noise_psd)
            assert outcome.rates[dev] == pytest.approx(rate, rel=1e-9)
            d_trans = transmission_delay(True, world.params.total_bytes, rate)
            d_comp = (world.params.local_epochs * world.data_size[dev]
                      * world.params.total_params
                      / world.compute_speed[dev])
            assert outcome.q[dev] == pytest.approx(d_trans + d_comp, rel=1e-9)

    def test_fedft_max_q_dominated_by_full_transfer(self):
        env = make_env(mode="fedft")
        world = env.world
        act = bundle([0, 1], (3, 3))
        outcome = run_round(world, act, FederationMode.FEDFT)
        sel_q = outcome.q[[0, 1]]
        d_trans = [transmission_delay(True, world.params.total_bytes,
                                      outcome.rates[d]) for d in (0, 1)]
        assert outcome.max_q == pytest.approx(max(sel_q))
        assert max(d_trans) / outcome.max_q > 0.5

    def test_fedpeft_exchanges_stop_after_first_round(self):
        env = make_env(mode="fedpeft")
        world = env.world
        total = 0
        for r in range(4):
            act = bundle([0, 1], (0, 2))  # retentions ignored in PEFT
            outcome = run_round(world, act, FederationMode.FEDPEFT)
            total += int(outcome.exchanges_this_round.sum())
            assert world.retention[0] == 1.0
        assert total == 2  # one initial exchange per device, never again

    def test_server_holds_30_percent_of_data(self):
        env = make_env(n=10, k=5)
        world = env.world
        device_total = world.data_size.sum()
        server = world.server_data_size
        assert server / (server + device_total) == pytest.approx(0.3, abs=0.01)

    def test_json_row_roundtrips(self):
        env = make_env()
        outcome = run_round(env.world, bundle([0, 1], (1, 1)),
                            FederationMode.FEDPEAT)
        row = json.loads(trace_lines([outcome])[0])
        assert row["round"] == 0
        assert row["mode"] == "fedpeat"
        assert row["selection"] == [0, 1]
        assert len(row["q"]) == len(row["selection"])

    def test_outcome_keeps_its_own_selection(self):
        # a caller that reuses its action array after the step must not
        # rewrite the round's outcome or its trace line
        env = make_env()
        action = bundle([0, 1], (1, 1))
        env.step(action)
        action.selection[:] = [2, 3]
        assert trace_lines([env.last_outcome])[0].startswith(
            '{"round": 0, "mode": "fedpeat", "selection": [0, 1], ')

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(list(FederationMode)),
           n=st.integers(1, 12), seed=st.integers(0, 2**16),
           epochs=st.sampled_from([0, 2]))
    def test_max_q_is_the_slowest_time(self, data, mode, n, seed, epochs):
        # every device selected, or some; with zero epochs an unchanged
        # emulator's round and the server's take no time
        k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
        env = make_env(mode.value, n=n, k=k, seed=seed, local_epochs=epochs)
        rng = np.random.default_rng(seed)
        for r in range(3):
            action = bundle(rng.permutation(n)[:k].tolist(),
                            rng.integers(0, 2, k).tolist(),
                            levels=rng.integers(1, 5, k).tolist())
            outcome = run_round(env.world, action, mode, r)
            assert outcome.max_q.hex() == max(outcome.server_q,
                                              float(outcome.q.max())).hex()

    @staticmethod
    def assert_episode_lines(n, k, rounds=40):
        """Every line of a random-policy episode is the aligned row, and
        expands to the dense row byte for byte; returns the outcomes."""
        params = dataclasses.replace(EnvParams(), n_devices=n, select_k=k,
                                     rounds=rounds)
        env = AdaptiveFedEnv(params)
        policy = RandomPolicy(default_branches(n, k, params.levels,
                                               len(params.retention_grid)),
                              seed=3)
        buf = io.StringIO()
        writer = RoundTraceWriter(buf)
        obs, done, outcomes = env.reset(seed=3), False, []
        while not done:
            step = policy.act(obs)
            obs, _, done = env.step(
                env.decode_branch_actions(*step.branch_actions))
            outcome = env.last_outcome
            writer.write(outcome)
            line = buf.getvalue().splitlines()[-1]
            assert line == aligned_row(outcome)
            assert dense_line(line) == dense_row(outcome)
            outcomes.append(outcome)
        assert len(outcomes) == rounds
        return outcomes

    def test_json_row_matches_reference_over_an_episode(self):
        outcomes = self.assert_episode_lines(60, 8)
        # the policy's selections are unsorted, and some selected devices
        # keep their emulator: zeros inside the aligned lists
        assert any((np.diff(o.selection) < 0).any() for o in outcomes)
        assert any(o.exchanges_this_round[o.selection].min() == 0
                   for o in outcomes)

    def test_json_row_over_an_all_selected_episode(self):
        outcomes = self.assert_episode_lines(6, 6, rounds=15)
        assert all(sorted(o.selection.tolist()) == list(range(6))
                   for o in outcomes)

    def test_json_row_with_an_unsorted_selection(self):
        # round 1 keeps devices 1 and 3 on their emulators, so they are
        # selected with no exchange and no payload
        env = make_env(n=8, k=3)
        outcomes = [
            run_round(env.world, bundle([5, 1, 3], [0, 1, 0]),
                      FederationMode.FEDPEAT, 0),
            run_round(env.world, bundle([3, 6, 1], [0, 1, 1]),
                      FederationMode.FEDPEAT, 1),
        ]
        lines = trace_lines(outcomes)
        assert lines == [aligned_row(o) for o in outcomes]
        assert [dense_line(line) for line in lines] == [
            dense_row(o) for o in outcomes]
        rows = [json.loads(line) for line in lines]
        assert [r["exchanges"] for r in rows] == [[1, 1, 1], [0, 1, 0]]
        assert rows[1]["payload_bytes"][0] == 0.0
        assert rows[1]["payload_bytes"][1] > 0.0

    def test_json_row_bytes(self):
        outcome = RoundOutcome(
            round_index=3, mode=FederationMode.FEDPEAT,
            selection=np.array([0, 2]),
            q=np.array([0.1234567891234, 0.0, 2.0 / 3.0]),
            server_q=0.4567891234567, max_q=2.0 / 3.0,
            perplexities=np.array([28.71582142668, 30.0, 29.1234565]),
            server_perplexity=27.5,
            exchanges_this_round=np.array([1, 0, 0]),
            payload_bytes=np.array([1.5e8, 0.0, 0.0]),
            footprints=np.array([1e9, 2e9]), rates=np.array([1e6, 0.0, 2e6]))
        buf = io.StringIO()
        RoundTraceWriter(buf).write(outcome)
        assert buf.getvalue() == (
            '{"round": 3, "mode": "fedpeat", "selection": [0, 2], '
            '"q": [0.123456789, 0.666666667], "server_q": 0.456789123, '
            '"perplexities": [28.715821, 30.0, 29.123456], '
            '"server_perplexity": 27.5, "exchanges": [1, 0], '
            '"payload_bytes": [150000000.0, 0.0]}\n')
        assert dense_line(buf.getvalue()) == dense_row(outcome)


def _signed(values):
    return st.tuples(values, st.sampled_from([1.0, -1.0])).map(
        lambda t: t[0] * t[1])


def _either_side(values):
    """Each value, or the double next to it on either side."""
    return st.tuples(values, st.sampled_from([-math.inf, None, math.inf])).map(
        lambda t: t[0] if t[1] is None else math.nextafter(*t))


# arbitrary doubles, and the values where a bulk render could part from
# round + repr: non-finite and signed zeros, subnormals, the edges of the
# fallback (5e-10 rounds to 0 or 1e-9 at nine places; repr writes an
# exponent below 1e-4; 1e6 and 1e9 leave room for 15 significant digits at
# nine and six places), decimal ties at six and nine places, and exact
# binary ties (odd multiples of 2**-7 and 2**-10 end in a 5 one place on)
_TRACE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -5e-324, 2.2250738585072014e-308]),
    _signed(_either_side(st.sampled_from([5e-10, 1e-4, 1e6, 1e9]))),
    _signed(st.sampled_from([5e-10, 1e-4, 1e6, 1e9]).flatmap(
        lambda c: st.floats(0.99 * c, 1.01 * c))),
    _either_side(st.builds(lambda i, digits: (i + 0.5) / 10 ** digits,
                           st.integers(-10 ** 15, 10 ** 15),
                           st.sampled_from([6, 9]))),
    st.builds(lambda i, scale: (2 * i + 1) / scale,
              st.integers(-10 ** 12, 10 ** 12), st.sampled_from([128, 1024])),
)


def _with_targets(columns, which, value):
    """A copy of the world's tables with the target perplexities of the
    columns ``which`` set to ``value``."""
    columns = columns.copy()
    columns[3, which] = value
    return columns


# how a world is spoiled (attribute -> value), and the message of the
# helper's check that must refuse it
_SPOILED_WORLDS = {
    "bandwidth": (lambda w: {"budgets": budget_terms(
        0.0, w.params.power_budget)}, "bandwidth must be positive"),
    "power": (lambda w: {"budgets": budget_terms(
        w.bandwidth_budget, -w.params.power_budget)},
        "power and gain must be non-negative"),
    "gain": (lambda w: {"gains": -w.gains},
             "power and gain must be non-negative"),
    "rate": (lambda w: {"gains": np.zeros_like(w.gains)},
             "cannot transmit a changed emulator at zero rate"),
    "device target": (lambda w: {"columns": _with_targets(
        w.columns, slice(0, -2), 0.0)}, "target perplexity must be positive"),
    "server target": (lambda w: {"columns": _with_targets(
        w.columns, -2, -1.0)}, "target perplexity must be positive"),
}


class TestHelperChecks:
    """Every check of a helper ``run_round`` calls refuses its bad
    input with its message, through ``run_round`` and ``env.step``."""

    @pytest.mark.parametrize("through", ["run_round", "step"])
    @pytest.mark.parametrize("spoiled", list(_SPOILED_WORLDS))
    def test_spoiled_world_refused(self, spoiled, through):
        env = make_env()
        spoil, message = _SPOILED_WORLDS[spoiled]
        for name, value in spoil(env.world).items():
            setattr(env.world, name, value)
        # first emulators on every selected device: each is a change
        action = bundle([0, 2], (0, 1), levels=[1, 3])
        with pytest.raises(ValueError, match=message):
            if through == "step":
                env.step(action)
            else:
                run_round(env.world, action, FederationMode.FEDPEAT)

    def test_non_positive_levels_refused(self):
        env = make_env()
        action = bundle([0, 2], (0, 1), levels=[0, 3])
        with pytest.raises(ValueError,
                           match="levels must be positive for selected"):
            run_round(env.world, action, FederationMode.FEDPEAT)
        # step's own check of the action comes first
        with pytest.raises(ValueError, match=r"bandwidth_levels must lie in"):
            env.step(action)


def dense_row(o):
    """The N-long row of one outcome: json.dumps of the row dict with
    ``q``, ``exchanges`` and ``payload_bytes`` over every device."""
    return json.dumps({
        "round": o.round_index,
        "mode": o.mode.value,
        "selection": o.selection.tolist(),
        "q": [round(x, 9) for x in o.q.tolist()],
        "server_q": round(o.server_q, 9),
        "perplexities": [round(x, 6) for x in o.perplexities.tolist()],
        "server_perplexity": round(o.server_perplexity, 6),
        "exchanges": o.exchanges_this_round.tolist(),
        "payload_bytes": o.payload_bytes.tolist(),
    })


def aligned_row(o):
    """The trace line of one outcome: json.dumps of the row dict with
    ``q``, ``exchanges`` and ``payload_bytes`` aligned with the
    selection."""
    sel = o.selection
    return json.dumps({
        "round": o.round_index,
        "mode": o.mode.value,
        "selection": sel.tolist(),
        "q": [round(x, 9) for x in o.q[sel].tolist()],
        "server_q": round(o.server_q, 9),
        "perplexities": [round(x, 6) for x in o.perplexities.tolist()],
        "server_perplexity": round(o.server_perplexity, 6),
        "exchanges": o.exchanges_this_round[sel].tolist(),
        "payload_bytes": o.payload_bytes[sel].tolist(),
    })


def dense_line(line):
    """A trace line expanded to the dense row: the selection zipped with
    the aligned lists, zeros elsewhere."""
    row = json.loads(line)
    n = len(row["perplexities"])
    for key, zero in (("q", 0.0), ("exchanges", 0), ("payload_bytes", 0.0)):
        dense = [zero] * n
        for i, x in zip(row["selection"], row[key], strict=True):
            dense[i] = x
        row[key] = dense
    return json.dumps(row)


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
        lines = trace_lines(outcomes)
        assert lines == [aligned_row(o) for o in outcomes]
        assert [dense_line(line) for line in lines] == [
            dense_row(o) for o in outcomes]

    def test_non_finite_and_signed_zero(self):
        def outcome(round_index, perplexities, q):
            n = len(perplexities)
            return RoundOutcome(
                round_index=round_index, mode=FederationMode.FEDPEFT,
                selection=np.array([1, 2]), q=np.array(q),
                server_q=float("inf"), max_q=float("inf"),
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
        assert trace_lines(outcomes) == [aligned_row(o) for o in outcomes]

    @settings(max_examples=400, deadline=None)
    @given(batch=st.lists(_TRACE_FLOATS, min_size=1, max_size=60))
    @pytest.mark.parametrize("digits", [6, 9])
    def test_bulk_render_equals_round_and_repr(self, digits, batch):
        assert _rounded(batch, digits) == [_number(round(x, digits))
                                           for x in batch]

    def test_json_row_bytes_through_the_fallback(self):
        # line 1: the selection's q mixes a plain value, one repr writes
        # with an exponent, one of 7 integer digits and an exact tie at
        # nine places (3 + 2**-10, to even), so it is rendered value by
        # value; the perplexities, a tie at six places (29 + 2**-7), 30.0
        # and one whose six places end in zeros, in bulk. Line 2: the tie in
        # bulk, and the two changed perplexities, one of 10 integer digits,
        # value by value. The selection's unchanged devices hold zeros in
        # the aligned lists.
        def outcome(round_index, selection, q, perplexities, exchanges,
                    payload):
            return RoundOutcome(
                round_index=round_index, mode=FederationMode.FEDPEAT,
                selection=np.array(selection), q=np.array(q), server_q=1.5,
                max_q=max(q), perplexities=np.array(perplexities),
                server_perplexity=27.5,
                exchanges_this_round=np.array(exchanges),
                payload_bytes=np.array(payload),
                footprints=np.ones(len(selection)), rates=np.ones(5))

        outcomes = [
            outcome(4, [4, 0, 1, 3],
                    [0.1234567891234, 3e-05, 0.0, 1.5e6, 3.0009765625],
                    [29.0078125, 30.0, 30.0, 28.71582142668, 13.5000000001],
                    [1, 0, 0, 1, 1], [1.5e8, 0.0, 0.0, 2.5e7, 1.5e8]),
            outcome(5, [2, 4], [0.0, 0.0, 0.25, 0.0, 3.0009765625],
                    [29.0078125, 30.0, 1234567890.123, 28.71582142668, 14.0],
                    [0, 0, 1, 0, 0], [0.0, 0.0, 2.5e7, 0.0, 0.0]),
        ]
        lines = trace_lines(outcomes)
        assert lines == [
            '{"round": 4, "mode": "fedpeat", "selection": [4, 0, 1, 3], '
            '"q": [3.000976562, 0.123456789, 3e-05, 1500000.0], '
            '"server_q": 1.5, '
            '"perplexities": [29.007812, 30.0, 30.0, 28.715821, 13.5], '
            '"server_perplexity": 27.5, "exchanges": [1, 1, 0, 1], '
            '"payload_bytes": [150000000.0, 150000000.0, 0.0, 25000000.0]}',
            '{"round": 5, "mode": "fedpeat", "selection": [2, 4], '
            '"q": [0.25, 3.000976562], "server_q": 1.5, '
            '"perplexities": [29.007812, 30.0, 1234567890.123, 28.715821, '
            '14.0], "server_perplexity": 27.5, "exchanges": [1, 0], '
            '"payload_bytes": [25000000.0, 0.0]}',
        ]
        assert lines == [aligned_row(o) for o in outcomes]
        assert [dense_line(line) for line in lines] == [
            dense_row(o) for o in outcomes]

    def test_one_writer_over_populations_of_different_sizes(self):
        # the kept perplexity text starts again when N changes
        outcomes = []
        for n, k in ((6, 3), (4, 2), (4, 2), (6, 2)):
            env = make_env(n=n, k=k, seed=n)
            for r in range(2):
                sel = list(range(r, r + k))
                outcomes.append(run_round(env.world, bundle(sel, [r] * k),
                                          FederationMode.FEDPEAT, r))
        assert trace_lines(outcomes) == [aligned_row(o) for o in outcomes]


def oracle_round(world, actions, mode):
    """One round computed with the public helpers, per round and without
    the world's tables; returns the outcome fields and the world state it
    leaves, and changes nothing."""
    p = world.params
    adapter = AdapterSpec.for_model(p)
    sel = actions.selection
    k = sel.size
    if mode is FederationMode.FEDFT:
        retention = np.ones(k)
        changed = np.ones(k, dtype=bool)
        trained = server_trained = p.total_params
        payload = footprint = np.full(k, float(p.total_bytes))
    else:
        grid = np.asarray(p.retention_grid)
        retention = (grid[actions.retention_columns]
                     if mode is FederationMode.FEDPEAT else np.ones(k))
        emulator = emulator_from_retention(p, adapter, retention)
        changed = world.retention[sel] != retention
        trained = emulator.params + adapter.params
        payload = emulator.bytes
        footprint = memory_footprint(emulator, adapter)
        server_trained = (emulator_from_retention(p, adapter, 1.0).params
                          + adapter.params)
    rates = np.zeros(k)
    if k:
        bw, pw = allocate_budgets(actions.bandwidth_levels,
                                  actions.power_levels, sel,
                                  budget_terms(world.bandwidth_budget,
                                               p.power_budget))
        rates = shannon_rate(bw, pw, world.gains[sel], p.noise_psd)
    q = (compute_delay(world.data_size[sel], world.compute_speed[sel],
                       trained, p.local_epochs)
         + transmission_delay(changed, payload, rates))
    server_q = float(compute_delay(world.server_data_size, world.server_speed,
                                   server_trained, p.local_epochs))
    perplexity = world.perplexity.copy()
    server_perplexity = world.server_perplexity
    if p.local_epochs > 0:
        perplexity[sel] = perplexity_step(perplexity[sel],
                                          final_perplexity(p, retention),
                                          p.convergence_rate)
        server_perplexity = float(perplexity_step(
            server_perplexity, final_perplexity(p, 1.0), p.convergence_rate))
    exchange_count = world.exchange_count.copy()
    exchange_count[sel[changed]] += 1
    world_retention = world.retention.copy()
    world_retention[sel[changed]] = retention[changed]

    def scatter(values):
        out = np.zeros(world.n_devices, dtype=np.asarray(values).dtype)
        out[sel] = values
        return out

    return {"q": scatter(q), "server_q": server_q,
            "perplexities": perplexity, "server_perplexity": server_perplexity,
            "exchanges_this_round": scatter(changed.astype(int)),
            "payload_bytes": scatter(np.where(changed, payload, 0.0)),
            "footprints": footprint, "rates": scatter(rates),
            "exchange_count": exchange_count, "retention": world_retention}


def assert_rounds_match_oracle(world, mode, rounds, chunk=1):
    """Run ``rounds`` (a list of actions), each later round on a row of the
    gains ``world.advance_channel`` draws ``chunk`` rows at a time, and compare every round
    with ``oracle_round``, bit for bit."""
    rows = []
    for r, actions in enumerate(rounds):
        want = oracle_round(world, actions, mode)
        got = run_round(world, actions, mode, r)
        for name in ("q", "perplexities", "exchanges_this_round",
                     "payload_bytes", "footprints", "rates"):
            a, b = getattr(got, name), want[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.server_q.hex() == want["server_q"].hex()
        assert got.server_perplexity.hex() == want["server_perplexity"].hex()
        assert world.exchange_count.tobytes() == want["exchange_count"].tobytes()
        assert world.retention.tobytes() == want["retention"].tobytes()
        rows = rows or list(world.advance_channel(
            np.empty((chunk, world.n_devices))))
        world.gains = rows.pop(0)


class TestRunRoundOracle:
    """run_round reads per-world tables; every round must equal, bit for
    bit, the values the public helpers compute per round."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(list(FederationMode)),
           n=st.integers(1, 12), seed=st.integers(0, 2**16),
           epochs=st.sampled_from([0, 1, 2]),
           total=st.sampled_from([1_208_000_000, 1_208_000_001, 7_000_003]),
           grid=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
                         min_size=1, max_size=5).map(tuple))
    def test_rounds_equal_the_helpers_bit_for_bit(self, data, mode, n, seed,
                                                  epochs, total, grid):
        # a small grid repeats retentions across devices and rounds, so
        # some stay unchanged; off the default total_params, the emulator at
        # retention 1.0 plus the adapter is not the whole model
        k = data.draw(st.integers(0, n), label="k")
        level = st.integers(1, 4)
        column = st.integers(0, len(grid) - 1)
        rounds = [ActionBundle(
            selection=np.array(data.draw(st.permutations(range(n)))[:k],
                               dtype=int),
            bandwidth_levels=np.array([data.draw(level) for _ in range(k)],
                                      dtype=int),
            power_levels=np.array([data.draw(level) for _ in range(k)],
                                  dtype=int),
            retention_columns=np.array([data.draw(column) for _ in range(k)],
                                       dtype=int))
            for _ in range(data.draw(st.integers(1, 6), label="rounds"))]
        env = make_env(mode.value, n=n, k=max(k, 1), seed=seed,
                       local_epochs=epochs, total_params=total,
                       retention_grid=grid)
        assert_rounds_match_oracle(env.world, mode, rounds,
                                   data.draw(st.integers(1, 12), label="chunk"))

    @pytest.mark.parametrize("mode", list(FederationMode))
    @pytest.mark.parametrize("grid", [(0.75, 0.25, 1.0, 0.25),
                                      (1.0, 0.1, 0.5, 0.1, 0.75)])
    def test_unsorted_grid_with_duplicates(self, mode, grid):
        rng = np.random.default_rng(7)
        n, k = 6, 3
        rounds = [bundle(rng.permutation(n)[:k].tolist(),
                         rng.integers(0, len(grid), k).tolist(),
                         levels=tuple(rng.integers(1, 5, k).tolist()))
                  for _ in range(12)]
        env = make_env(mode.value, n=n, k=k, seed=1, retention_grid=grid,
                       total_params=1_208_000_001)
        assert_rounds_match_oracle(env.world, mode, rounds, chunk=5)


speed_ranges = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(0.0, 80.0), st.floats(0.0, 80.0)).map(
        lambda r: (min(r), max(r))))


class TestAdvanceChannel:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           speed_range=speed_ranges, pause=st.sampled_from([0, 2]),
           chunks=st.lists(st.integers(1, 12), min_size=1, max_size=4))
    def test_arrays_match_scalar_reference(self, seed, n, speed_range, pause,
                                           chunks):
        env = make_env(n=n, k=1, seed=seed, speed_range=speed_range,
                       waypoint_pause=pause)
        world = env.world
        mobility_rng = copy.deepcopy(world.mobility_rng)
        fading_rng = copy.deepcopy(world.fading_rng)
        states = [DeviceState(position=p.copy()) for p in world.position]
        for size in chunks:
            rows = world.advance_channel(np.empty((size, n)))
            assert rows.shape == (size, n)
            for row in rows:
                gains = []
                for state in states:
                    pos = step_mobility(state, world.params, mobility_rng)
                    dist = float(np.hypot(pos[0], pos[1]))
                    gains.append(channel_gain(dist, world.params, fading_rng))
                np.testing.assert_allclose(row, gains, rtol=1e-12, atol=0)
            assert np.array_equal(world.position, [s.position for s in states])
            assert np.array_equal(world.waypoint, [
                np.full(2, np.nan) if s.waypoint is None else s.waypoint
                for s in states], equal_nan=True)
            assert world.pause_left.tolist() == [s.pause_left for s in states]
            assert world.leg_speed.tolist() == [s.leg_speed for s in states]
        assert (world.mobility_rng.bit_generator.state
                == mobility_rng.bit_generator.state)
        assert (world.fading_rng.bit_generator.state
                == fading_rng.bit_generator.state)
