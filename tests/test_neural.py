import itertools
import math

import numpy as np
import pytest

from fedemu.agents import _sample_topk, _topk_log_prob
from fedemu.neural import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    categorical_log_prob,
    categorical_sample,
    forward,
    forward_cached,
)

# every network shape the controllers instantiate (N=10, K=5, L=4, G=4);
# rows heads are weight-shared per device and see the chained state plus the
# device's own features
AGENT_SHAPES = [
    [31, 64, 64, 10],   # selection head
    [45, 64, 64, 4],    # bandwidth head
    [56, 64, 64, 4],    # power head
    [67, 64, 64, 4],    # retention head
    [34, 64, 64, 4],    # per-branch baseline rows head (base obs only)
    [31, 64, 64, 1],    # critic
]


class TestForward:
    def test_zero_net_zero_output(self):
        net = Mlp([3, 4, 2],
                  [np.zeros((3, 4)), np.zeros((4, 2))],
                  [np.zeros(4), np.zeros(2)])
        assert forward(net, np.ones(3)).tolist() == [0.0, 0.0]

    def test_affine_identity(self):
        net = Mlp([1, 1], [np.array([[2.0]])], [np.array([1.0])])
        assert forward(net, np.array([3.0]))[0] == 7.0

    def test_golden_vector(self):
        # frozen from the first implementation run
        rng = np.random.default_rng(2024)
        net = Mlp.init([5, 8, 3], rng)
        out = forward(net, np.array([0.5, -1.0, 2.0, 0.1, -0.3]))
        assert out.tolist() == [-0.010270416418616226,
                                0.014299493891847044,
                                0.016086168616745784]

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = Mlp.init([4, 6, 2], rng)
        xs = rng.standard_normal((5, 4))
        batched = forward(net, xs)
        for i in range(5):
            assert np.allclose(batched[i], forward(net, xs[i]))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        net = Mlp.init([4, 6, 2], rng)
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))


from _gradcheck import max_relative_error


class TestBackward:
    def test_linear_grad_is_input(self):
        net = Mlp([3, 1], [np.zeros((3, 1))], [np.zeros(1)])
        x = np.array([1.5, -2.0, 0.5])
        grads = backward(net, x, np.array([1.0]))
        assert np.allclose(grads[0][:, 0], x)
        assert grads[1][0] == 1.0

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(1)
        net = Mlp.init([4, 8, 3], rng)
        grads = backward(net, rng.standard_normal(4), np.zeros(3))
        assert all(np.all(g == 0) for g in grads)

    @pytest.mark.parametrize("shape", AGENT_SHAPES)
    def test_matches_finite_differences(self, shape):
        rng = np.random.default_rng(hash(tuple(shape)) % 2**32)
        small = [shape[0], 8, 8, shape[-1]]  # same depth, cheap FD sweep
        net = Mlp.init(small, rng, scale=100.0)
        for _ in range(3):
            x = rng.standard_normal(small[0])
            upstream = rng.standard_normal(small[-1])
            assert max_relative_error(net, x, upstream) < 1e-4

    def test_batched_grads_sum_over_rows(self):
        rng = np.random.default_rng(17)
        net = Mlp.init([4, 6, 2], rng)
        xs = rng.standard_normal((7, 4))
        ups = rng.standard_normal((7, 2))
        batched = backward(net, xs, ups)
        acc = [np.zeros_like(g) for g in batched]
        for i in range(7):
            for j, g in enumerate(backward(net, xs[i], ups[i])):
                acc[j] += g
        for a, b in zip(acc, batched):
            assert np.allclose(a, b, atol=1e-12)


class TestAdam:
    def test_zero_gradient_no_move(self):
        w = [np.array([1.0, -2.0])]
        st = AdamState.for_params(w, lr=0.1)
        adam_step(w, [np.zeros(2)], st)
        assert w[0].tolist() == [1.0, -2.0]

    def test_first_step_is_lr_sign(self):
        w = [np.array([5.0])]
        st = AdamState.for_params(w, lr=0.01)
        adam_step(w, [np.array([0.37])], st)
        assert w[0][0] - 5.0 == pytest.approx(-0.01, rel=1e-6)

    def test_scalar_quadratic_converges(self):
        # oracle: running this descent lands within 0.2 of the optimum
        w = [np.array([0.0])]
        st = AdamState.for_params(w, lr=0.1)
        for _ in range(100):
            adam_step(w, [2 * (w[0] - 3.0)], st)
        assert abs(w[0][0] - 3.0) < 0.2


class TestCategorical:
    def test_uniform_log_prob(self):
        logits = np.zeros(4)
        for i in range(4):
            assert categorical_log_prob(logits, i) == pytest.approx(math.log(0.25))

    def test_dominant_logit_wins(self):
        rng = np.random.default_rng(5)
        logits = np.array([0.0, 50.0, 0.0])
        hits = sum(categorical_sample(logits, rng)[0] == 1 for _ in range(10_000))
        assert hits / 10_000 > 0.999

    def test_softmax_normalized(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal(9) * 3
        probs = [math.exp(categorical_log_prob(logits, i)) for i in range(9)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_reproducible(self):
        logits = np.array([0.3, -0.2, 1.5, 0.0])
        a = [categorical_sample(logits, np.random.default_rng(7))[0]
             for _ in range(50)]
        b = [categorical_sample(logits, np.random.default_rng(7))[0]
             for _ in range(50)]
        assert a == b


class TestPlackettLuce:
    """The selection branch's Gumbel-top-k sampler and its log-probability."""

    def test_k1_uniform_marginals(self):
        rng = np.random.default_rng(8)
        counts = np.zeros(10)
        for _ in range(20_000):
            idx = _sample_topk(np.zeros(10), 1, rng)
            counts[idx[0]] += 1
        assert np.allclose(counts / 20_000, 0.1, atol=0.01)

    def test_log_prob_matches_enumeration(self):
        # N=5, K=2: brute force over all 20 ordered pairs
        rng = np.random.default_rng(9)
        logits = rng.standard_normal(5)
        p = np.exp(logits) / np.exp(logits).sum()
        total = 0.0
        for i, j in itertools.permutations(range(5), 2):
            expected = math.log(p[i]) + math.log(p[j] / (1.0 - p[i]))
            got = _topk_log_prob(logits, [i, j])
            assert got == pytest.approx(expected, abs=1e-9)
            total += math.exp(got)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_full_permutation_mass(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal(4)
        total = sum(
            math.exp(_topk_log_prob(logits, list(perm)))
            for perm in itertools.permutations(range(4)))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_n_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            _sample_topk(np.zeros(3), 4, rng)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            _topk_log_prob(np.zeros(4), [1, 1])

    def test_sample_matches_log_prob(self):
        # the sampler draws distinct indices, and each ordered draw comes up
        # as often as the log-probability says
        rng = np.random.default_rng(12)
        logits = rng.standard_normal(4)
        counts = {}
        n_draws = 20_000
        for _ in range(n_draws):
            idx = tuple(int(i) for i in _sample_topk(logits, 2, rng))
            assert len(set(idx)) == 2
            counts[idx] = counts.get(idx, 0) + 1
        for perm in itertools.permutations(range(4), 2):
            expected = math.exp(_topk_log_prob(logits, list(perm)))
            assert counts.get(perm, 0) / n_draws == pytest.approx(expected,
                                                                  abs=0.015)
