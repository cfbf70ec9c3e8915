import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedemu.env import EnvParams
from fedemu.simcore import (
    AdapterSpec,
    EmulatorSpec,
    compute_delay,
    emulator_from_retention,
    final_perplexity,
    least,
    memory_footprint,
    perplexity_step,
)

GB = 1e9


@pytest.fixture
def model():
    return EnvParams(total_params=1_208_000_000, total_bytes=2_630_000_000,
                     layer_count=24, adapter_top_layers=2, adapter_bottom_layers=2)


@pytest.fixture
def adapter(model):
    return AdapterSpec.for_model(model)


@pytest.fixture
def surrogate():
    return EnvParams(quad_a=25.2, quad_b=-43.1, quad_c=31.9, lora_delta=-0.78)


class TestModelSpecs:
    def test_adapter_fraction(self, model, adapter):
        assert adapter.layer_count == 4
        assert adapter.bytes == round(4 / 24 * 2_630_000_000)

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="adapter_top_layers"):
            EnvParams(total_params=1, total_bytes=1, layer_count=4,
                      adapter_top_layers=2, adapter_bottom_layers=2)
        with pytest.raises(ValueError, match="total_params"):
            EnvParams(total_params=0, total_bytes=1, layer_count=24,
                      adapter_top_layers=2, adapter_bottom_layers=2)


class TestEmulatorFromRetention:
    def test_full_retention(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 1.0)
        assert emu.layer_count == 20
        # 20/24 of 2.63 GB, hand arithmetic
        assert emu.bytes == pytest.approx(2.1916667 * GB, rel=1e-6)

    def test_minimum_layer_clamp(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 1e-9)
        assert emu.layer_count == 1

    def test_half_retention(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 0.5)
        assert emu.layer_count == 10
        assert emu.bytes == pytest.approx(1.0958333 * GB, rel=1e-6)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001, 2.0, float("nan")])
    def test_domain_errors(self, model, adapter, bad):
        with pytest.raises(ValueError):
            emulator_from_retention(model, adapter, bad)

    def test_bytes_monotone_in_retention(self, model, adapter):
        rng = np.random.default_rng(7)
        rhos = np.sort(rng.uniform(1e-3, 1.0, size=200))
        sizes = [emulator_from_retention(model, adapter, float(r)).bytes
                 for r in rhos]
        assert all(b2 >= b1 for b1, b2 in zip(sizes, sizes[1:]))

    def test_full_split_reassembles_model(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 1.0)
        one_layer = model.total_bytes / model.layer_count
        assert abs(emu.bytes + adapter.bytes - model.total_bytes) <= one_layer


class TestFinalPerplexity:
    def test_full_retention_values(self, surrogate):
        pre = EnvParams(lora_delta=0.0)
        assert final_perplexity(pre, 1.0) == pytest.approx(14.0, abs=1e-9)
        assert final_perplexity(surrogate, 1.0) == pytest.approx(13.22, abs=1e-9)

    def test_half_retention(self, surrogate):
        pre = EnvParams(lora_delta=0.0)
        assert final_perplexity(pre, 0.5) == pytest.approx(16.65, abs=1e-9)
        assert final_perplexity(surrogate, 0.5) == pytest.approx(15.87, abs=1e-9)

    def test_grid_values_match_quadratic(self):
        # hand-evaluated a*r^2 + b*r + c on the action grid; the curve dips
        # below its rho=1 value past the vertex at 43.1/(2*25.2) ~ 0.8552
        pre = EnvParams(lora_delta=0.0)
        expected = {0.25: 22.70, 0.5: 16.65, 0.75: 13.75, 1.0: 14.00}
        for rho, value in expected.items():
            assert final_perplexity(pre, rho) == pytest.approx(value, abs=1e-9)

    def test_decreasing_left_of_vertex(self):
        pre = EnvParams(lora_delta=0.0)
        vertex = 43.1 / (2 * 25.2)
        rhos = np.linspace(0.05, vertex, 50)
        vals = [final_perplexity(pre, float(r)) for r in rhos]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain_error(self, surrogate):
        with pytest.raises(ValueError):
            final_perplexity(surrogate, 0.0)


class TestLeast:
    @given(values=st.lists(st.floats() | st.integers(-3, 3), max_size=8),
           shape=st.sampled_from(["list", "array", "column", "number"]))
    def test_compares_as_any(self, values, shape):
        # least(x) <= 0 and least(x) < 0 hold where any entry does; NaN
        # entries compare false either way
        x = {"list": values, "array": np.array(values, dtype=float),
             "column": np.array(values, dtype=float)[:, None],
             "number": values[0] if values else 1.0}[shape]
        entries = np.asarray(x, dtype=float)
        assert (least(x) <= 0) == bool((entries <= 0).any())
        assert (least(x) < 0) == bool((entries < 0).any())

    def test_empty_is_inf(self):
        assert least(np.zeros(0)) == math.inf


class TestPerplexityStep:
    def test_zero_rate_keeps_value(self):
        assert perplexity_step(31.9, 13.22, 0.0) == 31.9

    def test_fixed_point(self):
        assert perplexity_step(13.22, 13.22, 0.3) == 13.22

    def test_one_participation(self):
        # 13.22 + 18.68 * 0.9
        got = perplexity_step(31.9, 13.22, 0.1)
        assert got == pytest.approx(30.032, abs=1e-12)

    def test_contraction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.uniform(5.0, 40.0)
            target = rng.uniform(5.0, 40.0)
            rate = rng.uniform(0.0, 1.0)
            new = perplexity_step(p, target, rate)
            assert abs(new - target) <= (1 - rate) * abs(p - target) + 1e-12


class TestComputeDelay:
    def test_hand_value(self, model):
        emu = EmulatorSpec(retention=1.0, layer_count=20, params=900_000_000,
                           bytes=1)
        adapter = AdapterSpec(layer_count=4, params=100_000_000, bytes=1)
        assert compute_delay(100, 1e10, emu.params + adapter.params,
                             1) == pytest.approx(10.0)

    def test_linearity_in_epochs(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 0.5)
        params = emu.params + adapter.params
        assert compute_delay(250, 1e11, params, 4) == pytest.approx(
            2 * compute_delay(250, 1e11, params, 2))

    def test_infinite_speed_limit(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 1.0)
        assert compute_delay(250, 1e30, emu.params + adapter.params, 2) < 1e-15


class TestMemoryFootprint:
    def test_full_split_sums_to_model(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 1.0)
        assert memory_footprint(emu, adapter) == pytest.approx(
            model.total_bytes, abs=model.total_bytes / model.layer_count)

    def test_zero_byte_adapter(self, model):
        ghost = AdapterSpec(layer_count=4, params=0, bytes=0)
        emu = EmulatorSpec(retention=0.5, layer_count=10, params=1, bytes=12345)
        assert memory_footprint(emu, ghost) == 12345

    def test_half_retention_footprint(self, model, adapter):
        emu = emulator_from_retention(model, adapter, 0.5)
        # (10 + 4)/24 of 2.63 GB
        assert memory_footprint(emu, adapter) == pytest.approx(1.5341667 * GB,
                                                               rel=1e-6)
