import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedemu.agents import _eval_topk, _sample_topk
from fedemu.neural import (
    AdamState,
    Mlp,
    Scratch,
    adam_step,
    backward,
    forward,
    log_softmax,
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
        assert forward(net, np.ones((1, 3)))[0][0].tolist() == [0.0, 0.0]

    def test_affine_identity(self):
        net = Mlp([1, 1], [np.array([[2.0]])], [np.array([1.0])])
        assert forward(net, np.array([[3.0]]))[0][0, 0] == 7.0

    def test_golden_vector(self):
        # frozen from the first implementation run
        rng = np.random.default_rng(2024)
        net = Mlp.init([5, 8, 3], rng, dtype=np.float64)
        x = np.array([[0.5, -1.0, 2.0, 0.1, -0.3]])
        out, _ = forward(net, x)
        assert out[0].tolist() == [-0.010270416418616226,
                                0.014299493891847044,
                                0.016086168616745784]
        # the learner's float32 net draws the same weights, rounded
        out32, _ = forward(Mlp.init([5, 8, 3], np.random.default_rng(2024)), x)
        assert out32.dtype == np.float32
        assert np.allclose(out32, out, rtol=1e-6, atol=0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        net = Mlp.init([4, 6, 2], rng)
        xs = rng.standard_normal((5, 4))
        batched, _ = forward(net, xs)
        for i in range(5):
            assert np.allclose(batched[i], forward(net, xs[i:i + 1])[0][0])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        net = Mlp.init([4, 6, 2], rng)
        with pytest.raises(ValueError):
            forward(net, np.zeros((1, 5)))


from _gradcheck import analytic_grads, grads_of, max_relative_error


class TestBackward:
    def test_linear_grad_is_input(self):
        net = Mlp([3, 1], [np.zeros((3, 1))], [np.zeros(1)])
        x = np.array([1.5, -2.0, 0.5])
        grads = analytic_grads(net, x[None, :], np.array([[1.0]]))
        assert np.allclose(grads[0][:, 0], x)
        assert grads[1][0] == 1.0

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(1)
        net = Mlp.init([4, 8, 3], rng)
        grads = analytic_grads(net, rng.standard_normal((1, 4)),
                               np.zeros((1, 3)))
        assert all(np.all(g == 0) for g in grads)

    @pytest.mark.parametrize("shape", AGENT_SHAPES)
    def test_matches_finite_differences(self, shape):
        rng = np.random.default_rng(hash(tuple(shape)) % 2**32)
        small = [shape[0], 8, 8, shape[-1]]  # same depth, cheap FD sweep
        net = Mlp.init(small, rng, scale=100.0, dtype=np.float64)
        for _ in range(3):
            x = rng.standard_normal((1, small[0]))
            upstream = rng.standard_normal((1, small[-1]))
            assert max_relative_error(net, x, upstream) < 1e-4

    @pytest.mark.parametrize("k", [None, 1, 5, 20])
    def test_matches_sum_reference(self, k):
        """The bias gradients and a factored input's per-sample sums are
        matmuls with a ones vector; in float64 they equal the ``np.sum``
        reduction to rounding."""
        rng = np.random.default_rng(50 + (k or 0))
        m, d, e = 64, 31, 6
        net = Mlp.init([d + (e if k else 0), 64, 64, 4], rng, scale=100.0,
                       dtype=np.float64)
        x = rng.standard_normal((m, d))
        feats = rng.standard_normal((m * k, e)) if k else None
        upstream = rng.standard_normal((m * (k or 1), 4))
        got = grads_of(net, upstream, forward(net, x, feats)[1])
        want = _sum_reference_grads(net, upstream, x, feats)
        for g, w in zip(got, want, strict=True):
            assert _scale_close(g, w, 1e-12)

    def test_batched_grads_sum_over_rows(self):
        rng = np.random.default_rng(17)
        net = Mlp.init([4, 6, 2], rng)
        xs = rng.standard_normal((7, 4))
        ups = rng.standard_normal((7, 2))
        batched = analytic_grads(net, xs, ups)
        acc = [np.zeros_like(g) for g in batched]
        for i in range(7):
            for j, g in enumerate(analytic_grads(net, xs[i:i + 1],
                                                 ups[i:i + 1])):
                acc[j] += g
        for a, b in zip(acc, batched):
            assert np.allclose(a, b, atol=1e-12)


def _sum_reference_grads(net, upstream, x, feats=None):
    """Gradients of sum(upstream * output) with every reduction over rows an
    ``np.sum``: the reference for ``backward``'s sums as matmuls."""
    acts = forward(net, x, feats)[1]
    grads = [None] * (2 * len(net.weights))
    g = upstream
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:
            g = g * (1.0 - acts[i + 1] ** 2)
        if i == 0 and feats is not None:
            k = len(feats) // len(x)
            per_sample = np.sum(g.reshape(len(x), k, -1), axis=1)
            grads[0] = np.concatenate([x.T @ per_sample, feats.T @ g])
        else:
            grads[2 * i] = acts[i].T @ g
        grads[2 * i + 1] = np.sum(g, axis=0)
        g = g @ net.weights[i].T
    return grads


def _scale_close(got, want, rel):
    """Equal to within ``rel`` of the reference array's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return np.max(np.abs(got - want), initial=0.0) <= rel * max(
        np.max(np.abs(want), initial=0.0), 1e-300)


class TestFactoredInput:
    """A rows head's input [x[s] | feats[s*K + j]] passed in two parts must
    behave exactly like the concatenated matrix."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 6), k=st.integers(1, 6), d=st.integers(1, 9),
           e=st.integers(1, 5),
           hidden=st.lists(st.integers(1, 12), min_size=0, max_size=3),
           out=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_matches_concatenated_input(self, m, k, d, e, hidden, out, seed):
        rng = np.random.default_rng(seed)
        net = Mlp.init([d + e, *hidden, out], rng, scale=100.0,
                       dtype=np.float64)
        x = rng.standard_normal((m, d))
        feats = rng.standard_normal((m * k, e))
        row_in = np.concatenate([np.repeat(x, k, axis=0), feats], axis=1)
        upstream = rng.standard_normal((m * k, out))

        got_out, got_acts = forward(net, x, feats)
        want_out, want_acts = forward(net, row_in)
        assert _scale_close(got_out, want_out, 1e-12)
        assert isinstance(got_acts[0], tuple)
        for a, b in zip(got_acts[1:], want_acts[1:], strict=True):
            assert _scale_close(a, b, 1e-12)
        want = grads_of(net, upstream, want_acts)
        for g, w in zip(grads_of(net, upstream, got_acts), want):
            assert _scale_close(g, w, 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        net = Mlp.init([7 + 3, 8, 8, 4], rng, scale=100.0, dtype=np.float64)
        x = rng.standard_normal((3, 7))
        feats = rng.standard_normal((3 * 4, 3))
        upstream = rng.standard_normal((3 * 4, 4))
        assert max_relative_error(net, x, upstream, feats) < 1e-4

    def test_shape_errors(self):
        net = Mlp.init([5, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError, match="do not split"):
            forward(net, np.zeros((2, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="does not match"):
            forward(net, np.zeros((2, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="2-D"):
            forward(net, np.zeros(3), np.zeros((4, 2)))


class TestScratch:
    def test_matches_fresh_arrays_and_reuses_memory(self):
        rng = np.random.default_rng(41)
        net = Mlp.init([7 + 3, 8, 8, 4], rng, scale=100.0)
        scratch = Scratch()
        opt = AdamState(net.parameters())
        first = None
        for m in (5, 5, 2):  # the short last minibatch gets row-prefix views
            x = rng.standard_normal((m, 7))
            feats = rng.standard_normal((m * 4, 3))
            upstream = rng.standard_normal((m * 4, 4))
            want_out, want_acts = forward(net, x, feats)
            want = grads_of(net, upstream, want_acts)
            out, acts = forward(net, x, feats, scratch)
            assert np.array_equal(out, want_out)
            for a, b in zip(acts[1:], want_acts[1:]):
                assert np.array_equal(a, b)
            got = backward(net, upstream, acts, opt.grads, scratch)
            assert got is opt.grads
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            first = first or [out, *acts[1:]]
            for a, b in zip([out, *acts[1:]], first):
                assert np.shares_memory(a, b)

    @pytest.mark.parametrize("net_dtype,scratch_dtype", [
        (np.float64, np.float32), (np.float32, np.float64)])
    def test_refuses_a_scratch_of_another_dtype(self, net_dtype,
                                                scratch_dtype):
        """numpy would round a float64 net's products into float32 work
        arrays (or widen float32 ones) without a word."""
        rng = np.random.default_rng(43)
        net = Mlp.init([6, 8, 3], rng, dtype=net_dtype)
        opt = AdamState(net.parameters())
        x = rng.standard_normal((4, 6))
        acts = forward(net, x)[1]
        names = (f"{np.dtype(scratch_dtype)} scratch cannot serve a "
                 f"{np.dtype(net_dtype)} net")
        for call in (lambda s: forward(net, x, scratch=s),
                     lambda s: backward(net, np.ones((4, 3)), acts,
                                        opt.grads, s),
                     lambda s: adam_step(opt, s),
                     lambda s: _eval_topk(net, x, np.array([[0, 2]] * 4), s)):
            with pytest.raises(ValueError, match=names):
                call(Scratch(scratch_dtype))
            call(Scratch(net_dtype))   # the net's own dtype is accepted
        assert opt.step == 1   # the refused step changed nothing

    def test_no_scratch_gives_fresh_arrays(self):
        rng = np.random.default_rng(42)
        net = Mlp.init([6, 8, 3], rng)
        x = rng.standard_normal((4, 6))
        out_a, acts_a = forward(net, x)
        out_b, acts_b = forward(net, x)
        assert not np.shares_memory(out_a, out_b)
        assert not np.shares_memory(acts_a[1], acts_b[1])


class TestAdam:
    def test_zero_gradient_no_move(self):
        w = [np.array([1.0, -2.0])]
        st = AdamState(w, lr=0.1)
        st.grads[0][...] = 0.0
        adam_step(st)
        assert w[0].tolist() == [1.0, -2.0]

    def test_first_step_is_lr_sign(self):
        w = [np.array([5.0])]
        st = AdamState(w, lr=0.01)
        st.grads[0][...] = 0.37
        adam_step(st)
        assert w[0][0] - 5.0 == pytest.approx(-0.01, rel=1e-6)

    def test_steps_exactly_its_params_in_place(self):
        rng = np.random.default_rng(22)
        net = Mlp.init([5, 6, 3], rng)
        arrays = net.parameters()
        before = [p.copy() for p in arrays]
        st = AdamState(arrays[:2], lr=0.1)   # the first layer only
        assert all(p is q for p, q in zip(st.params, arrays[:2], strict=True))
        for g in st.grads:
            g[...] = rng.standard_normal(g.shape)
        adam_step(st)
        assert all(p is q for p, q in zip(net.parameters(), arrays))
        for p, old in zip(arrays[:2], before[:2]):
            assert np.all(p != old)
        for p, old in zip(arrays[2:], before[2:]):
            assert np.array_equal(p, old)

    def test_in_place_matches_reference_formula(self, dtype=np.float64):
        def reference_step(params, grads, state):
            state.step += 1
            b1c = 1.0 - state.beta1 ** state.step
            b2c = 1.0 - state.beta2 ** state.step
            for p, g, m, v in zip(params, grads, state.m, state.v):
                m *= state.beta1
                m += (1.0 - state.beta1) * g
                v *= state.beta2
                v += (1.0 - state.beta2) * g * g
                # the bias corrections as scalar factors: one division
                p -= (m * (state.lr / b1c)) / (np.sqrt(v * (1.0 / b2c))
                                               + state.eps)

        rng = np.random.default_rng(21)
        net = Mlp.init([604, 64, 64, 4], rng, dtype=dtype)
        ref = copy.deepcopy(net)
        st_new = AdamState(net.parameters(), lr=1e-3)
        st_ref = AdamState(ref.parameters(), lr=1e-3)
        for _ in range(50):
            grads = [(rng.standard_normal(p.shape)
                      * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                     for p in net.parameters()]
            for dst, g in zip(st_new.grads, grads, strict=True):
                dst[...] = g
            adam_step(st_new)
            reference_step(ref.parameters(), grads, st_ref)
        for a, b in zip(net.parameters() + st_new.m + st_new.v,
                        ref.parameters() + st_ref.m + st_ref.v):
            assert np.array_equal(a, b)

    def test_in_place_matches_reference_formula_in_float32(self):
        """The learner's float32 step is the same formula, bit for bit: its
        scalars stay Python floats, so nothing is computed in float64."""
        self.test_in_place_matches_reference_formula(np.float32)

    def test_copies_keep_views_on_their_own_flat_buffers(self):
        params = [np.zeros((3, 2)), np.zeros(2)]
        st = AdamState(params, lr=0.1)
        twin = copy.deepcopy(st)
        for state in (st, twin):
            for views in (state.m, state.v, state.grads):
                assert views[0].base is not None
                assert views[0].base is views[1].base
        assert not np.shares_memory(st.m[0], twin.m[0])
        assert not np.shares_memory(st.params[0], twin.params[0])
        for state in (st, twin):
            for g in state.grads:
                g[...] = 1.0
            adam_step(state)
        assert np.all(st.m[0] != 0.0)
        for a, b in zip(st.params + st.m + st.v,
                        twin.params + twin.m + twin.v):
            assert np.array_equal(a, b)

    def test_views_are_per_shape_slices_of_the_flat_array(self):
        shapes = [(3, 4), (4,), (1, 1), (0, 5), (2, 1, 3), ()]
        st = AdamState([np.zeros(shape) for shape in shapes])
        flat = np.arange(24.0)
        lo = 0
        for view, shape in zip(st.views(flat), shapes, strict=True):
            size = math.prod(shape)
            assert view.shape == shape
            assert np.array_equal(view, flat[lo:lo + size].reshape(shape))
            assert size == 0 or np.shares_memory(view, flat)
            lo += size
        assert lo == len(flat) == len(st._m)

    def test_scalar_quadratic_converges(self):
        # oracle: running this descent lands within 0.2 of the optimum
        w = [np.array([0.0])]
        st = AdamState(w, lr=0.1)
        for _ in range(100):
            st.grads[0][...] = 2 * (w[0] - 3.0)
            adam_step(st)
        assert abs(w[0][0] - 3.0) < 0.2


def _log_softmax_reference(logits):
    """``z - log(sum(exp(z)))`` over the last axis, in float64 from the
    given values, with z = logits - max so that 1e3-scale logits do not
    overflow."""
    x = np.asarray(logits, np.float64)
    z = x - np.max(x, axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


class TestCategorical:
    def test_softmax_normalized(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((5, 9)) * 3
        probs = np.exp(log_softmax(logits))
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype,rel", [
        (np.float64, 1e-12), (np.float32, 4 * np.finfo(np.float32).eps)])
    @pytest.mark.parametrize("shape", [(7,), (200,), (1280, 4), (64, 200)])
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_reference(self, dtype, rel, shape, scale, masked):
        """The row maxima over a transposed copy and the exp-sums as a
        matmul give the textbook formula to the dtype's rounding; masked
        (-inf) logits get -inf."""
        rng = np.random.default_rng(sum(shape))
        logits = (rng.standard_normal(shape) * scale).astype(dtype)
        mask = np.zeros(shape, bool)
        if masked:
            mask = rng.random(shape) < 0.3
            mask[..., 0] = False   # every row keeps a finite logit
            logits[mask] = -np.inf
        for scratch in (None, Scratch(dtype)):
            got = log_softmax(logits, scratch)
            assert got.dtype == dtype and got.shape == logits.shape
            want = _log_softmax_reference(logits)
            assert np.all(got[mask] == -np.inf)
            err = np.abs(got[~mask] - want[~mask])
            assert np.all(err <= rel * np.maximum(np.abs(want[~mask]), 1.0))


def _pl_log_prob(logits, draws):
    """Plackett-Luce log-probability of each ordered draw (a row of
    ``draws``), from the selection head's evaluation through a one-layer net
    with identity weights, whose output is its input."""
    draws = np.atleast_2d(draws)
    n = len(logits)
    head = Mlp([n, n], [np.eye(n)], [np.zeros(n)])
    return _eval_topk(head, np.tile(logits, (len(draws), 1)), draws).logp


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
        pairs = list(itertools.permutations(range(5), 2))
        got = _pl_log_prob(logits, pairs)
        for (i, j), lp in zip(pairs, got):
            expected = math.log(p[i]) + math.log(p[j] / (1.0 - p[i]))
            assert lp == pytest.approx(expected, abs=1e-9)
        assert np.exp(got).sum() == pytest.approx(1.0, abs=1e-9)

    def test_full_permutation_mass(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal(4)
        perms = list(itertools.permutations(range(4)))
        total = np.exp(_pl_log_prob(logits, perms)).sum()
        assert total == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _masked_loop_log_prob(logits, indices):
        """Reference: one masked log-softmax per draw."""
        available = np.ones(len(logits), dtype=bool)
        logp = 0.0
        for idx in indices:
            masked = np.where(available, logits, -np.inf)
            logp += float(log_softmax(masked)[idx])
            available[idx] = False
        return logp

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_full_permutation_and_greedy_order(self, scale):
        rng = np.random.default_rng(13)
        logits = rng.standard_normal(200) * scale
        for idx in (rng.permutation(200), np.argsort(-logits)[:20],
                    np.argsort(-logits)):
            want = self._masked_loop_log_prob(logits, idx)
            assert abs(_pl_log_prob(logits, idx)[0] - want) <= 1e-10 * max(
                abs(want), 1.0)

    def test_k_larger_than_n_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            _sample_topk(np.zeros(3), 4, rng)

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
        perms = list(itertools.permutations(range(4), 2))
        for perm, lp in zip(perms, _pl_log_prob(logits, perms)):
            assert counts.get(perm, 0) / n_draws == pytest.approx(
                math.exp(lp), abs=0.015)
