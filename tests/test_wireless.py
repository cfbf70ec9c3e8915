import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedemu.simcore import DeviceState
from fedemu.wireless import (
    ChannelParams,
    MobilityModel,
    advance_mobility,
    allocate_budgets,
    channel_gain,
    dbm_per_hz_to_watts,
    rician_fading_power,
    shannon_rate,
    step_mobility,
    transmission_delay,
)


def det_params(**kw):
    defaults = dict(rician_k=math.inf, reference_loss_db=40.0,
                    reference_distance=1.0, pathloss_exponent=3.5)
    defaults.update(kw)
    return ChannelParams(**defaults)


class TestChannelGain:
    def test_reference_point_no_fading(self):
        rng = np.random.default_rng(0)
        g = channel_gain(1.0, det_params(), rng)
        assert g == pytest.approx(10 ** (-40 / 10))

    def test_power_law_doubling(self):
        rng = np.random.default_rng(0)
        p = det_params(pathloss_exponent=4.0)
        g1 = channel_gain(50.0, p, rng)
        g2 = channel_gain(100.0, p, rng)
        assert g1 / g2 == pytest.approx(16.0)

    def test_below_reference_clamped(self):
        rng = np.random.default_rng(0)
        p = det_params()
        assert channel_gain(0.01, p, rng) == channel_gain(1.0, p, rng)

    def test_rician_power_normalized(self):
        # E|h|^2 = 1 for any K; Monte Carlo oracle
        rng = np.random.default_rng(1234)
        samples = [rician_fading_power(3.0, rng) for _ in range(100_000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.02)

    def test_deterministic_for_infinite_k(self):
        rng = np.random.default_rng(5)
        p = det_params()
        vals = {channel_gain(80.0, p, rng) for _ in range(10)}
        assert len(vals) == 1

    def test_noise_floor_conversion(self):
        assert dbm_per_hz_to_watts(-174.0) == pytest.approx(3.9810717e-21,
                                                            rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(pathloss_exponent=1.0)
        with pytest.raises(ValueError):
            ChannelParams(rician_k=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(bandwidth_budget=0.0)


class TestShannonRate:
    def test_zero_power(self):
        assert shannon_rate(1e9, 0.0, 1e-9, 1e-20) == 0.0

    def test_unit_snr_gives_bandwidth(self):
        b = 3.7e9
        gain, power = 1e-10, 2.0
        noise = gain * power / b  # SNR exactly 1
        assert shannon_rate(b, power, gain, noise) == pytest.approx(b)

    def test_snr_1023_hand_value(self):
        # B log2(1024) = 10 B
        b, gain, power = 1e9, 1e-9, 1.0
        noise = gain * power / (b * 1023.0)
        assert shannon_rate(b, power, gain, noise) == pytest.approx(1e10)

    def test_monotone_in_power_and_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            b = rng.uniform(1e8, 1e10)
            g = 10 ** rng.uniform(-14, -8)
            p = rng.uniform(0.01, 15.0)
            n0 = 10 ** rng.uniform(-21, -19)
            r = shannon_rate(b, p, g, n0)
            assert shannon_rate(b, p * 1.5, g, n0) > r
            assert shannon_rate(b, p, g * 1.5, n0) > r

    def test_bandwidth_monotonicity_at_fixed_gp(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            g = 10 ** rng.uniform(-14, -8)
            p = rng.uniform(0.01, 15.0)
            n0 = 10 ** rng.uniform(-21, -19)
            b = rng.uniform(1e8, 1e10)
            assert shannon_rate(b * 1.5, p, g, n0) > shannon_rate(b, p, g, n0)


class TestTransmissionDelay:
    def test_unchanged_is_free(self):
        assert transmission_delay(False, 2.63e9, 1e10) == 0.0
        # even a zero rate is fine when nothing is sent
        assert transmission_delay(False, 2.63e9, 0.0) == 0.0

    def test_full_model_at_10_gbit(self):
        assert transmission_delay(True, 2.63e9, 1e10) == pytest.approx(2.104)

    def test_zero_rate_infeasible(self):
        with pytest.raises(ValueError):
            transmission_delay(True, 2.63e9, 0.0)


class TestAllocateBudgets:
    def params(self, b=20e9, p=15.0):
        return ChannelParams(bandwidth_budget=b, power_budget=p)

    def test_equal_levels_split_evenly(self):
        levels = np.ones(5)
        bw, pw = allocate_budgets(levels, levels, [0, 2, 4, 6, 8],
                                  self.params())
        assert bw.tolist() == pytest.approx([4e9] * 5)
        assert pw.tolist() == pytest.approx([3.0] * 5)

    def test_proportional_shares(self):
        levels_pw = np.array([2.0, 1.0, 1.0])
        bw, pw = allocate_budgets(np.ones(3), levels_pw, [0, 1, 2],
                                  self.params(p=15.0))
        assert pw.tolist() == pytest.approx([7.5, 3.75, 3.75])

    def test_single_device_takes_everything(self):
        bw, pw = allocate_budgets([3.0], [2.0], [3], self.params())
        assert bw.tolist() == [20e9] and pw.tolist() == [15.0]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            allocate_budgets([], [], [], self.params())

    def test_budget_sums_exact_and_nonnegative(self):
        rng = np.random.default_rng(9)
        params = self.params(b=13.7e9, p=15.0)
        for _ in range(500):
            n = rng.integers(2, 12)
            k = int(rng.integers(1, n + 1))
            sel = rng.choice(n, size=k, replace=False)
            levels_b = rng.integers(1, 5, size=k)
            levels_p = rng.integers(1, 5, size=k)
            bw, pw = allocate_budgets(levels_b, levels_p, sel, params)
            assert bw.shape == pw.shape == (k,)
            assert sum(bw.tolist()) == params.bandwidth_budget
            assert sum(pw.tolist()) == params.power_budget
            assert (bw >= 0).all() and (pw >= 0).all()

    def test_remainder_tie_sums_exact(self):
        # the remainder of unrounded shares is a rounding tie here: it missed
        # the budget by one ulp (2**-19 Hz)
        params = self.params(b=16548286433.25348)
        levels = np.array([1.0, 1.0, 4.0])
        bw, pw = allocate_budgets(levels, levels, [0, 2, 4], params)
        assert sum(bw.tolist()) == params.bandwidth_budget
        assert sum(pw.tolist()) == params.power_budget
        assert bw[2] == pytest.approx(params.bandwidth_budget * 4 / 6,
                                      rel=1e-15)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60),
           budget=st.floats(7e9, 20e9), power=st.floats(0.1, 100.0))
    def test_budget_sums_exact_property(self, data, n, budget, power):
        sel = data.draw(st.permutations(range(n)))[
            :data.draw(st.integers(1, n))]
        level = st.integers(1, 4)
        levels_b = np.array(data.draw(st.lists(level, min_size=len(sel),
                                               max_size=len(sel))), dtype=float)
        levels_p = np.array(data.draw(st.lists(level, min_size=len(sel),
                                               max_size=len(sel))), dtype=float)
        params = self.params(b=budget, p=power)
        bw, pw = allocate_budgets(levels_b, levels_p, sel, params)
        assert sum(bw.tolist()) == budget
        assert sum(pw.tolist()) == power
        assert (bw > 0).all() and (pw > 0).all()
        shares = levels_b / levels_b.sum() * budget
        assert np.allclose(bw, shares, rtol=1e-12, atol=0)
        # the highest device index takes the remainder in any order, so the
        # shares are those of the sorted selection, bit for bit
        order = np.argsort(sel)
        bw_sorted, pw_sorted = allocate_budgets(
            levels_b[order], levels_p[order], np.asarray(sel)[order], params)
        assert bw[order].tolist() == bw_sorted.tolist()
        assert pw[order].tolist() == pw_sorted.tolist()


class TestMobility:
    model = MobilityModel(area_radius=150.0, speed_range=(1.0, 10.0),
                          waypoint_pause=2)

    def test_zero_speed_stays_put(self):
        rng = np.random.default_rng(0)
        st = DeviceState(position=np.array([3.0, 4.0]))
        frozen = MobilityModel(area_radius=150.0, speed_range=(0.0, 0.0),
                               waypoint_pause=0)
        for _ in range(5):
            pos = step_mobility(st, frozen, rng)
        assert pos.tolist() == [3.0, 4.0]

    def test_stays_inside_disc(self):
        rng = np.random.default_rng(123)
        st = DeviceState(position=np.array([149.0, 0.0]))
        for _ in range(500):
            pos = step_mobility(st, self.model, rng)
            assert np.hypot(*pos) <= self.model.area_radius + 1e-9

    def test_displacement_bounded_by_speed(self):
        rng = np.random.default_rng(321)
        st = DeviceState(position=np.zeros(2))
        prev = st.position.copy()
        for _ in range(200):
            pos = step_mobility(st, self.model, rng)
            assert np.hypot(*(pos - prev)) <= self.model.speed_range[1] + 1e-9
            prev = pos.copy()

    @pytest.mark.parametrize("speed_range,pause", [
        ((0.0, 0.0), 2), ((1.0, 10.0), 0), ((0.0, 0.0), 0)])
    def test_advance_raises_no_float_warnings(self, speed_range, pause):
        model = MobilityModel(area_radius=50.0, speed_range=speed_range,
                              waypoint_pause=pause)
        rng = np.random.default_rng(7)
        n = 16
        position = rng.uniform(-30.0, 30.0, size=(n, 2))
        waypoint = np.full((n, 2), np.nan)
        waypoint[0] = position[0]  # device 0 starts on its waypoint
        pause_left = np.zeros(n, dtype=int)
        leg_speed = np.full(n, speed_range[0])
        start = position.copy()
        with np.errstate(all="raise"):
            for _ in range(20):
                advance_mobility(position, waypoint, pause_left, leg_speed,
                                 model, rng)
        assert np.isfinite(position).all()
        if speed_range == (0.0, 0.0):
            # legs of speed 0 never move a device off its start
            assert np.array_equal(position, start)

    def test_seed42_golden_trace(self):
        # frozen from the first implementation run
        golden = [
            (1.9287990390318903, -1.6799248441879024),
            (-6.142401921936218, 1.6401503116241951),
            (-14.213602882904325, 4.960225467436292),
            (-22.284803843872435, 8.28030062324839),
            (-30.356004804840545, 11.600375779060489),
            (-38.42720576580865, 14.920450934872587),
            (-46.498406726776764, 18.240526090684686),
            (-54.56960768774488, 21.560601246496784),
        ]
        rng = np.random.default_rng(42)
        st = DeviceState(position=np.array([10.0, -5.0]))
        for gx, gy in golden:
            pos = step_mobility(st, self.model, rng)
            assert pos[0] == gx and pos[1] == gy
