import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedemu import agents as agents_module
from fedemu.agents import (
    BranchSpec,
    FixedFullModelPolicy,
    HappoAgent,
    IterRlAgent,
    PpoConfig,
    RandomPolicy,
    SabppoAgent,
    default_branches,
    gae,
    _PARTITION_FROM,
    _eval_rows,
    _eval_topk,
    _feature_columns,
    _row_features,
    _top_k,
)
from fedemu.env import AdaptiveFedEnv, EnvParams
from fedemu.simcore import stream
from fedemu.neural import (
    Mlp,
    adam_step,
    forward,
    Scratch,
    log_softmax,
)
from _gradcheck import grads_of

OBS_DIM = 31
BRANCHES = default_branches(10, 5, 4, 4)


def rollout_env(agent, params=None, seed=0, steps=None):
    """Collect one buffer's worth of real environment interaction."""
    params = params or EnvParams()
    env = AdaptiveFedEnv(params)
    buffer = agent.make_buffer()
    obs = env.reset(seed=seed)
    episode = 0
    steps = steps or buffer.capacity
    for _ in range(steps):
        sa = agent.act(obs)
        bundle = env.decode_branch_actions(*sa.branch_actions)
        nxt, reward, done = env.step(bundle)
        buffer.add(obs, sa, reward.total, done, nxt)
        if done:
            episode += 1
            obs = env.reset(seed=seed + 1000 * episode)
        else:
            obs = nxt
    return buffer


def gae_brute_force(rewards, values, next_values, dones, gamma, lam):
    """O(T^2) double sum over discounted TD residuals."""
    n = len(rewards)
    deltas = [
        rewards[t] + gamma * (0.0 if dones[t] else 1.0) * next_values[t]
        - values[t]
        for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for k in range(t, n):
            adv[t] += coef * deltas[k]
            if dones[k]:
                break
            coef *= gamma * lam
    return adv


class TestGae:
    def test_single_step(self):
        assert gae([1.0], [0.0], [0.0], [True], 0.99, 0.95).tolist() == [1.0]

    def test_lambda_zero_is_one_step_td(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(12)
        v = rng.standard_normal(12)
        nv = rng.standard_normal(12)
        dones = np.zeros(12, dtype=bool)
        adv = gae(r, v, nv, dones, 0.9, 0.0)
        deltas = r + 0.9 * nv - v
        assert np.allclose(adv, deltas, atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = 20
            r = rng.standard_normal(n)
            v = rng.standard_normal(n)
            nv = rng.standard_normal(n)
            dones = rng.uniform(size=n) < 0.15
            dones[-1] = True
            gamma = rng.uniform(0.8, 1.0)
            lam = rng.uniform(0.1, 1.0)
            fast = gae(r, v, nv, dones, gamma, lam)
            slow = gae_brute_force(r, v, nv, dones, gamma, lam)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gae([1.0, 2.0], [0.0], [0.0], [True], 0.99, 0.95)


class TestPpoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_eps=0.0)
        with pytest.raises(ValueError):
            PpoConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PpoConfig(epochs=0)


def _encode_one(spec, action, selection, n_devices):
    """Reference: the per-sample encoder the chained state was built with
    when every act stored its heads' inputs, one feature block per branch."""
    vec = np.zeros(n_devices)
    if spec.kind == "topk":
        vec[action] = 1.0
    else:
        levels = action + 1.0
        vec[selection] = levels / levels.sum()
    return vec


def _record_head_inputs(agent, monkeypatch) -> list:
    """Make each of ``agent``'s heads append a copy of its input to the
    returned list as it acts; the next act overwrites the kept row."""
    recorded = []
    branch_action = agent._branch_action

    def recording(b, spec, net_in, selection, greedy):
        recorded.append(net_in.copy())
        return branch_action(b, spec, net_in, selection, greedy)

    monkeypatch.setattr(agent, "_branch_action", recording)
    return recorded


class TestAct:
    def test_greedy_is_reproducible(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=0)
        obs = np.random.default_rng(1).standard_normal(OBS_DIM)
        a = agent.act(obs, greedy=True)
        b = agent.act(obs, greedy=True)
        assert all(np.array_equal(x, y) for x, y in
                   zip(a.branch_actions, b.branch_actions))

    def test_chained_input_dims(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=0)
        buffer = rollout_env(agent, steps=3)
        assert [x.shape for x in agent._head_inputs(buffer)[0]] == [
            (3, 31), (3, 41), (3, 51), (3, 61)]

    @pytest.mark.parametrize("policy", [
        IterRlAgent(OBS_DIM, BRANCHES, seed=0),
        HappoAgent(OBS_DIM, BRANCHES, seed=0),
        RandomPolicy(BRANCHES, seed=0), FixedFullModelPolicy(BRANCHES, seed=0)],
        ids=lambda p: type(p).__name__)
    def test_unchained_policies_record_only_the_observation(self, policy):
        obs = np.random.default_rng(2).standard_normal(OBS_DIM)
        sa = policy.act(obs)
        assert [f.name for f in dataclasses.fields(sa)] == ["branch_actions"]
        if hasattr(policy, "make_buffer"):
            buffer = policy.make_buffer()
            buffer.add(obs, sa, 1.0, False, obs)
            inputs, _ = policy._head_inputs(buffer)
            assert len(inputs) == 4
            # the buffer stores the float32 inputs the nets read
            assert all(np.array_equal(x, obs[None, :].astype(np.float32))
                       for x in inputs)

    @pytest.mark.parametrize("n,k", [(10, 5), (40, 20)])
    def test_rebuilt_chain_matches_per_sample_encoder(self, n, k):
        params = EnvParams(n_devices=n, select_k=k)
        branches = default_branches(n, k, params.levels,
                                    len(params.retention_grid))
        agent = SabppoAgent(params.observation_dim, branches, seed=13)
        buffer = rollout_env(agent, params, seed=13, steps=30)
        inputs, _ = agent._head_inputs(buffer)
        for t in range(30):
            chain = buffer.obs[t]
            selection = buffer.actions[0][t]
            for b, spec in enumerate(branches):
                got = inputs[b][t]
                assert got.tobytes() == chain.tobytes(), (t, b)
                chain = np.concatenate([chain, _encode_one(
                    spec, buffer.actions[b][t], selection, n)
                    .astype(np.float32)])

    @pytest.mark.parametrize("greedy", [False, True])
    def test_acting_chain_matches_per_sample_encoder(self, greedy,
                                                     monkeypatch):
        """The chained state ``act`` writes in place and hands each head
        equals the chain of per-sample encodings."""
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=11)
        recorded = _record_head_inputs(agent, monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(20):
            obs = rng.standard_normal(OBS_DIM)
            recorded.clear()
            actions = agent.act(obs, greedy=greedy).branch_actions
            chain = obs.astype(np.float32)   # the nets' input dtype
            for b, spec in enumerate(BRANCHES):
                assert recorded[b].shape == (1, len(chain))
                assert recorded[b].tobytes() == chain.tobytes(), b
                chain = np.concatenate([chain, _encode_one(
                    spec, actions[b], actions[0], 10).astype(np.float32)])

    @pytest.mark.parametrize("greedy", [False, True])
    def test_unchained_heads_act_on_the_observation(self, greedy,
                                                    monkeypatch):
        """Every IterRL head reads the observation alone, call after call
        of the kept row."""
        agent = IterRlAgent(OBS_DIM, BRANCHES, seed=11)
        recorded = _record_head_inputs(agent, monkeypatch)
        rng = np.random.default_rng(11)
        for _ in range(5):
            obs = rng.standard_normal(OBS_DIM)
            recorded.clear()
            agent.act(obs, greedy=greedy)
            want = obs.astype(np.float32)[None, :].tobytes()
            assert [x.tobytes() for x in recorded] == [want] * len(BRANCHES)

    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    @pytest.mark.parametrize("greedy", [False, True])
    def test_copies_act_as_separately_built_agents(self, agent_cls, greedy):
        """An agent and its deepcopy, acting in turn on different
        observations, act as two agents built apart; no returned action
        shares memory with either one's kept row."""
        obs = np.random.default_rng(12).standard_normal((12, OBS_DIM))
        agent = agent_cls(OBS_DIM, BRANCHES, seed=12)
        apart = [agent_cls(OBS_DIM, BRANCHES, seed=12) for _ in range(2)]
        for policy in (agent, *apart):
            policy.act(obs[0], greedy=greedy)   # the row exists before copying
        pair = (agent, copy.deepcopy(agent))
        assert not np.shares_memory(*(p._row for p in pair))
        for t in range(1, 12):
            for i, o in enumerate((obs[t], obs[-t])):
                got = pair[i].act(o, greedy=greedy).branch_actions
                want = apart[i].act(o, greedy=greedy).branch_actions
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                assert not any(np.shares_memory(a, p._row)
                               for a in got for p in pair)

    def test_fresh_agent_selection_marginals_near_uniform(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=3)
        obs = np.random.default_rng(3).standard_normal(OBS_DIM)
        counts = np.zeros(10)
        n_draws = 10_000
        for _ in range(n_draws):
            sa = agent.act(obs)
            counts[sa.branch_actions[0]] += 1
        assert np.allclose(counts / n_draws, 0.5, atol=0.05)

    def test_bit_reproducible_given_seed(self):
        obs = np.random.default_rng(5).standard_normal(OBS_DIM)
        runs = []
        for _ in range(2):
            agent = SabppoAgent(OBS_DIM, BRANCHES, seed=9)
            runs.append([agent.act(obs).branch_actions for _ in range(20)])
        for acts_a, acts_b in zip(*runs):
            assert all(np.array_equal(x, y) for x, y in zip(acts_a, acts_b))


def _row_head_inputs(chain, selection, n_devices):
    """Reference: the concatenated rows-head input, one row per (sample,
    slot): the chained state, then the device's gain, capacity and exchange
    count, then its slice of every appended encoding."""
    m, k = selection.shape
    n_enc = (chain.shape[1] - (3 * n_devices + 1)) // n_devices
    rows = np.repeat(np.arange(m), k)
    sel = selection.reshape(-1)
    feats = [chain[rows, sel], chain[rows, n_devices + sel],
             chain[rows, 2 * n_devices + sel]]
    offset = 3 * n_devices + 1
    for j in range(n_enc):
        feats.append(chain[rows, offset + j * n_devices + sel])
    return np.concatenate([chain[rows], np.stack(feats, axis=1)], axis=1)


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(keys=st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]),
                         min_size=1, max_size=40),
           data=st.data())
    def test_matches_stable_argsort_on_ties(self, keys, data):
        x = np.array(keys)
        if data.draw(st.booleans()):   # long enough for the partition path
            x = np.resize(x, data.draw(st.integers(_PARTITION_FROM, 400)))
        k = data.draw(st.integers(1, len(x)))
        want = np.argsort(-x, kind="stable")[:k]
        assert np.array_equal(_top_k(x, k), want)

    @pytest.mark.parametrize("integer", [False, True])
    def test_matches_stable_argsort_at_wide_size(self, integer):
        rng = np.random.default_rng(50)
        for _ in range(20):
            x = rng.gumbel(size=1000)
            if integer:
                x = np.round(x * 3)
            assert np.array_equal(_top_k(x, 50),
                                  np.argsort(-x, kind="stable")[:50])


class TestRowHeads:
    def test_features_complete_the_concatenated_input(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=4)
        buffer = rollout_env(agent, seed=4, steps=12)
        selection = buffer.actions[0][:12]
        for chain in agent._head_inputs(buffer)[0][1:]:
            got = np.concatenate([np.repeat(chain, 5, axis=0),
                                  _row_features(chain, selection, 10)], axis=1)
            assert np.array_equal(got, _row_head_inputs(chain, selection, 10))
        with pytest.raises(ValueError):   # cached offsets are shared
            _feature_columns(10, chain.shape[1])[0] = 1

    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    def test_update_features_equal_minibatch_features(self, agent_cls,
                                                      monkeypatch):
        """The row features an update derives once for the whole segment,
        gathered for a minibatch, equal that minibatch's own features."""
        agent = agent_cls(OBS_DIM, BRANCHES,
                          cfg=PpoConfig(segment=40, minibatch=16), seed=7)
        buffer = rollout_env(agent, seed=7)
        derived = agent._head_inputs(buffer)
        inputs, feats = derived
        assert feats[0] is None
        if not agent.chained:   # every unchained head sees the observations
            assert feats[1] is feats[2] is feats[3]
        gathered = []
        monkeypatch.setattr(
            agents_module, "_eval_topk",
            lambda net, x, actions, *rest: gathered.append(None))
        monkeypatch.setattr(
            agents_module, "_eval_rows",
            lambda net, x, actions, f, *rest: gathered.append(f.copy()))
        perm = np.random.default_rng(7).permutation(40)
        for start in range(0, 40, 16):
            idx = perm[start:start + 16]
            selection = buffer.actions[0][idx]
            for unit in agent.units:
                for scratch in (None, [Scratch() for _ in unit.nets]):
                    gathered.clear()
                    agent._passes(unit, buffer, derived, idx, scratch)
                    for b, f in zip(unit.branch_ids, gathered, strict=True):
                        if b == 0:
                            assert f is None
                            continue
                        want = _row_features(inputs[b][idx], selection, 10)
                        assert f.shape == want.shape
                        assert f.tobytes() == want.tobytes()

    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    def test_eval_matches_concatenated_path(self, agent_cls):
        agent = agent_cls(OBS_DIM, BRANCHES, seed=5)
        buffer = rollout_env(agent, seed=5, steps=16)
        selection = buffer.actions[0][:16]
        rng = np.random.default_rng(5)
        for b in (1, 2, 3):
            net = _float64(agent.branch_nets[b])
            inputs = agent._head_inputs(buffer)[0][b]
            actions = buffer.actions[b][:16]
            ev = _eval_rows(net, inputs, actions,
                            _row_features(inputs, selection, agent.n_devices))
            row_in = _row_head_inputs(inputs, selection, agent.n_devices)
            out, acts = forward(net, row_in)
            lp = log_softmax(out)
            want_logp = lp[np.arange(80), actions.reshape(-1)].reshape(16, 5)
            assert np.allclose(ev.logp, want_logp.sum(axis=1),
                               rtol=1e-12, atol=0)
            upstream = rng.standard_normal(out.shape)
            for g, w in zip(grads_of(net, upstream, ev.activations),
                            grads_of(net, upstream, acts)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def _float64(net):
    """A float64 copy of a net, so that two float64 paths can be compared
    to float64 rounding."""
    return Mlp(net.layer_sizes, [w.astype(np.float64) for w in net.weights],
               [b.astype(np.float64) for b in net.biases])


def _masked_loop_eval_topk(logits, actions):
    """Reference: the selection head's log-prob, entropy and their logit
    gradients as one masked log-softmax per draw."""
    m, n = logits.shape
    rows = np.arange(m)
    available = np.ones((m, n), dtype=bool)
    logp, entropy = np.zeros(m), np.zeros(m)
    grad_logp, grad_ent = np.zeros((m, n)), np.zeros((m, n))
    for k in range(actions.shape[1]):
        lp = log_softmax(np.where(available, logits, -np.inf))
        lp_safe = np.where(available, lp, 0.0)  # avoid 0 * -inf at masked slots
        p = np.where(available, np.exp(lp_safe), 0.0)
        a_k = actions[:, k]
        logp += lp[rows, a_k]
        grad_logp -= p
        grad_logp[rows, a_k] += 1.0
        h_k = -(p * lp_safe).sum(axis=1)
        entropy += h_k
        grad_ent += -p * (lp_safe + h_k[:, None])
        available[rows, a_k] = False
    return logp, grad_logp, entropy, grad_ent


def _logits_head(n):
    """A one-layer identity net: its output is its input, so a test can
    hand ``_eval_topk`` logits directly."""
    return Mlp([n, n], [np.eye(n)], [np.zeros(n)])


class TestEvalTopk:
    """The selection head's closed-form Plackett-Luce evaluation."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 16), n=st.integers(1, 40),
           k_frac=st.floats(0.0, 1.0),
           scale=st.sampled_from([1e-3, 1.0, 10.0, 100.0, 1e3]),
           greedy=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_masked_loop(self, m, n, k_frac, scale, greedy, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((m, n)) * scale
        k = max(1, round(k_frac * n))  # K = N included
        order = (np.argsort(-logits, axis=1, kind="stable") if greedy
                 else np.stack([rng.permutation(n) for _ in range(m)]))
        actions = order[:, :k]
        got = _eval_topk(_logits_head(n), logits, actions)
        want = _masked_loop_eval_topk(logits, actions)
        for g, w in zip((got.logp, got.grad_logp, got.entropy,
                         got.grad_entropy), want):
            # rounding grows with the logits' size, so the floor is 1, not 0
            assert np.all(np.abs(g - w) <= 1e-10 * np.maximum(np.abs(w), 1.0))

    @pytest.mark.parametrize("m,n,k", [(64, 200, 20), (7, 10, 5),
                                       (5, 6, 6), (3, 4, 1)])
    def test_float64_matches_masked_loop_to_rounding(self, m, n, k):
        """The triangle's sums run as matmuls with a ones vector; in float64
        all four outputs stay within 1e-12 of the masked loop."""
        rng = np.random.default_rng(60 + n)
        logits = rng.standard_normal((m, n))
        actions = np.stack([rng.permutation(n)[:k] for _ in range(m)])
        for scratch in (None, Scratch(np.float64)):
            got = _eval_topk(_logits_head(n), logits, actions, scratch)
            want = _masked_loop_eval_topk(logits, actions)
            for g, w in zip((got.logp, got.grad_logp, got.entropy,
                             got.grad_entropy), want):
                assert np.all(np.abs(g - w)
                              <= 1e-12 * np.maximum(np.abs(w), 1.0))

    @pytest.mark.parametrize("n,k", [(7, 3), (5, 5), (9, 1), (12, 11)])
    def test_gradients_match_finite_differences(self, n, k):
        rng = np.random.default_rng(40 + n)
        logits = rng.standard_normal((2, n)) * 2.0
        actions = np.stack([rng.permutation(n)[:k] for _ in range(2)])
        head = _logits_head(n)
        ev = _eval_topk(head, logits, actions)
        h = 1e-6
        for s in range(2):
            for i in range(n):
                up, down = logits.copy(), logits.copy()
                up[s, i] += h
                down[s, i] -= h
                hi = _eval_topk(head, up, actions)
                lo = _eval_topk(head, down, actions)
                fd_ent = (hi.entropy[s] - lo.entropy[s]) / (2 * h)
                fd_logp = (hi.logp[s] - lo.logp[s]) / (2 * h)
                assert abs(fd_ent - ev.grad_entropy[s, i]) < 1e-7
                assert abs(fd_logp - ev.grad_logp[s, i]) < 1e-7


class TestUpdateMemory:
    def test_second_update_allocates_little(self):
        """An update reuses its work arrays and Adam buffers: at N=200, K=20
        a second IterRL update peaks below 2 MiB of new allocations (3.7 MiB
        when every minibatch allocated its own)."""
        params = EnvParams(n_devices=200, select_k=20)
        branches = default_branches(200, 20, params.levels,
                                    len(params.retention_grid))
        agent = IterRlAgent(params.observation_dim, branches, seed=12)
        buffer = rollout_env(agent, params, seed=12)
        agent.update(buffer)
        tracemalloc.start()
        try:
            agent.update(buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCopies:
    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    def test_update_of_a_copy_leaves_the_original(self, agent_cls):
        """Every optimiser of a deep copy steps the copy's own net arrays, so
        updating the copy leaves the original's nets and moments as they
        were."""
        cfg = PpoConfig(segment=20, minibatch=10, epochs=1)
        agent = agent_cls(OBS_DIM, BRANCHES, cfg=cfg, seed=3)
        buffer = rollout_env(agent, seed=3)
        twin = copy.deepcopy(agent)

        def parts(a):
            actors, critics = a.components()
            return ([(u.opt, [p for net in u.nets for p in net.parameters()])
                     for _, u in actors]
                    + [(c.opt, c.net.parameters()) for _, c in critics])

        def state(a):
            return [x.copy() for opt, arrays in parts(a)
                    for x in arrays + opt.m + opt.v]

        for a in (agent, twin):
            for opt, arrays in parts(a):
                assert all(p is q for p, q in zip(opt.params, arrays,
                                                  strict=True))
        before = state(agent)
        twin.update(buffer)
        assert not all(np.array_equal(a, b)
                       for a, b in zip(before, state(twin)))
        for a, b in zip(before, state(agent), strict=True):
            assert np.array_equal(a, b)


class TestFloat32:
    """The learner trains in float32. One float64 operand in an update
    upcasts silently and brings back the float64 matmuls."""

    @pytest.mark.parametrize("agent_cls",
                             [SabppoAgent, IterRlAgent, HappoAgent])
    def test_update_keeps_every_network_array_float32(self, agent_cls):
        cfg = PpoConfig(segment=20, minibatch=10, epochs=1)
        agent = agent_cls(OBS_DIM, BRANCHES, cfg=cfg, seed=3)
        buffer = rollout_env(agent, seed=3)
        agent.update(buffer)
        actors, critics = agent.components()
        nets = ([net for _, unit in actors for net in unit.nets]
                + [c.net for _, c in critics])
        arrays = [p for net in nets for p in net.parameters()]
        for _, part in actors + critics:
            arrays += [part.opt._m, part.opt._v, part.opt._g]
        arrays += [a for s in agent._scratch for a in s._arrays.values()]
        assert all(a.dtype == np.float32 for a in arrays)
        assert buffer.obs.dtype == np.float32
        derived = agent._head_inputs(buffer)
        for unit in agent.units:
            for p in agent._passes(unit, buffer, derived, np.arange(10)):
                assert all(a.dtype == np.float32 for a in (
                    p.logp, p.grad_logp, p.entropy, p.grad_entropy))
        obs64 = buffer.obs[:5].astype(np.float64)
        for _, c in critics:
            assert forward(c.net, obs64)[0].dtype == np.float32

    def test_no_adam_moment_is_subnormal(self):
        """Subnormal float32 arithmetic is many times slower; Adam's second
        moment decays towards it where gradients are tiny."""
        agent = IterRlAgent(OBS_DIM, BRANCHES, cfg=PpoConfig(segment=50),
                            seed=21)
        for seed in range(8):
            agent.update(rollout_env(agent, seed=seed))
        actors, critics = agent.components()
        for _, part in actors + critics:
            for flat in [part.opt._m, part.opt._v, *part.opt.params]:
                a = np.abs(flat)
                assert not np.any((a > 0) & (a < np.finfo(np.float32).tiny))


class TestRatioAndClip:
    def test_behaviour_logps_match_acting_nets(self, monkeypatch):
        """The behaviour log-probs an update starts from are those of the
        nets' outputs when they acted: masked-loop Plackett-Luce for the
        selection, a categorical per selected device for the other heads."""
        outputs = []

        def recording_forward(net, x, feats=None, scratch=None):
            result = forward(net, x, feats, scratch)
            outputs.append(result[0])
            return result

        monkeypatch.setattr(agents_module, "forward", recording_forward)
        for agent_cls in (SabppoAgent, IterRlAgent):
            agent = agent_cls(OBS_DIM, BRANCHES,
                              cfg=PpoConfig(segment=40, minibatch=16), seed=1)
            outputs.clear()
            buffer = rollout_env(agent, seed=1)
            want = np.zeros((40, 4))
            for t in range(40):
                logits, *mats = outputs[4 * t:4 * t + 4]
                sel = buffer.actions[0][t]
                want[t, 0] = _masked_loop_eval_topk(logits, sel[None, :])[0][0]
                for b, mat in enumerate(mats, 1):
                    want[t, b] = log_softmax(mat)[np.arange(5),
                                                  buffer.actions[b][t]].sum()
            got = agent.evaluate_logps(buffer, agent._head_inputs(buffer))
            # float32 nets: the batched pass and the one-row acting pass
            # round differently, by a few float32 ulps of the log-prob
            assert np.all(np.abs(got - want)
                          <= 1e-6 * np.maximum(np.abs(want), 1.0))

    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    def test_behaviour_logps_equal_full_pass(self, agent_cls):
        """The log-prob part alone gives the log-probs of the full
        evaluation, bit for bit."""
        agent = agent_cls(OBS_DIM, BRANCHES,
                          cfg=PpoConfig(segment=40, minibatch=16), seed=2)
        buffer = rollout_env(agent, seed=2)
        derived = agent._head_inputs(buffer)
        got = agent.evaluate_logps(buffer, derived)
        for unit in agent.units:
            for start in range(0, 40, 16):
                idx = np.arange(start, min(start + 16, 40))
                passes = agent._passes(unit, buffer, derived, idx)
                for b, p in zip(unit.branch_ids, passes):
                    assert got[idx, b].tobytes() == p.logp.tobytes()

    def test_clipped_never_exceeds_unclipped(self):
        rng = np.random.default_rng(2)
        eps = 0.2
        for _ in range(2000):
            ratio = np.exp(rng.standard_normal() * 0.5)
            adv = rng.standard_normal() * 3
            clipped = min(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)
            assert clipped <= ratio * adv + 1e-15

    def test_zero_advantage_zero_entropy_no_actor_change(self):
        cfg = PpoConfig(entropy_coef=0.0, segment=32, minibatch=16)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=4)
        buffer = rollout_env(agent, seed=4, steps=32)
        # zero rewards and a zero critic give zero advantages, which the
        # degenerate-batch guard leaves unnormalised
        net = agent.critics[0].net
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        buffer.rewards[:] = 0.0
        before = [p.copy() for p in agent.units[0].opt.params]
        agent.update(buffer)
        after = agent.units[0].opt.params
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_saturated_clip_gives_zero_gradient(self):
        cfg = PpoConfig(entropy_coef=0.0, segment=16, minibatch=16)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=5)
        buffer = rollout_env(agent, seed=5, steps=16)
        adv = agent._normalized(agent._advantages(buffer, agent.critics[0])[0])
        assert np.all(adv != 0.0)
        # shift the behaviour log-probs so every ratio lands at 1 + 2*eps
        # where the advantage is positive and 1 - 2*eps where it is
        # negative: every sample is clipped
        eps = cfg.clip_eps
        shift = np.where(adv > 0, np.log(1 + 2 * eps), np.log(1 - 2 * eps))
        behaviour = agent.evaluate_logps

        def shifted(buf, *derived):
            logps = behaviour(buf, *derived)
            logps[:, 0] -= shift
            return logps

        agent.evaluate_logps = shifted
        before = [p.copy() for p in agent.units[0].opt.params]
        agent.update(buffer)
        for b, a in zip(before, agent.units[0].opt.params):
            assert np.array_equal(b, a)

    def test_unit_ratio_gradient_is_plain_policy_gradient(self):
        cfg = PpoConfig(entropy_coef=0.0, epochs=1, segment=24, minibatch=24)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=6)
        buffer = rollout_env(agent, seed=6, steps=24)
        twin = copy.deepcopy(agent)

        # manual REINFORCE-style step: ratio is exactly 1 before updates, so
        # the surrogate gradient reduces to mean(adv * dlogp)
        adv = twin._normalized(twin._advantages(buffer, twin.critics[0])[0])
        m = buffer.size
        unit = twin.units[0]
        perm = unit.shuffle.permutation(m)  # mirror the update's order
        idx = perm[:cfg.minibatch]
        grads = []
        selection = buffer.actions[0][idx]
        inputs, _ = twin._head_inputs(buffer)
        for b, net in enumerate(unit.nets):
            x, actions = inputs[b][idx], buffer.actions[b][idx]
            ev = (_eval_topk(net, x, actions) if b == 0 else _eval_rows(
                net, x, actions, _row_features(x, selection, twin.n_devices)))
            coef = adv[idx].astype(np.float32) / len(idx)  # as the update
            if ev.rows_per_sample > 1:
                coef = np.repeat(coef, ev.rows_per_sample)
            upstream = coef[:, None] * ev.grad_logp
            grads.extend(grads_of(net, -upstream, ev.activations))
        for dst, g in zip(unit.opt.grads, grads, strict=True):
            dst[...] = g
        adam_step(unit.opt)

        agent.update(buffer)
        for manual, updated in zip(unit.opt.params,
                                   agent.units[0].opt.params):
            assert np.allclose(manual, updated, atol=1e-12)


class TestLiveCritic:
    """GAE reads the critic being trained, as it stands when an update
    starts; there is no lagged copy."""

    def test_perturbing_the_critic_moves_advantages(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=7)
        buffer = rollout_env(agent, seed=7, steps=50)
        adv_before, _ = agent._advantages(buffer, agent.critics[0])
        rng = np.random.default_rng(0)
        for w in agent.critics[0].net.weights:
            w += rng.standard_normal(w.shape)
        adv_after, _ = agent._advantages(buffer, agent.critics[0])
        assert not np.array_equal(adv_before, adv_after)

    def test_advantages_are_gae_over_live_values(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=8)
        buffer = rollout_env(agent, seed=8, steps=50)
        assert buffer.final_obs is not None
        net, m, cfg = agent.critics[0].net, buffer.size, agent.cfg
        v = forward(net, buffer.obs[:m])[0][:, 0]
        v_next = np.append(v[1:], forward(net, buffer.final_obs[None])[0][0])
        want = gae(buffer.rewards[:m], v, v_next, buffer.dones[:m],
                   cfg.gamma, cfg.lam)
        adv, returns = agent._advantages(buffer, agent.critics[0])
        assert adv.tobytes() == want.tobytes()
        assert returns.tobytes() == (want + v).tobytes()

    def test_next_update_reads_the_trained_critic(self, monkeypatch):
        cfg = PpoConfig(segment=32, minibatch=8, epochs=2)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=9)
        initial = copy.deepcopy(agent.critics[0].net)
        agent.update(rollout_env(agent, seed=9, steps=32))
        trained = copy.deepcopy(agent.critics[0].net)
        seen = []

        def recording_gae(rewards, values, *rest):
            seen.append(values.copy())
            return gae(rewards, values, *rest)

        monkeypatch.setattr(agents_module, "gae", recording_gae)
        buffer = rollout_env(agent, seed=10, steps=32)
        agent.update(buffer)
        obs = buffer.obs[:buffer.size]
        assert len(seen) == 1
        assert seen[0].tobytes() == forward(trained, obs)[0][:, 0].tobytes()
        assert not np.array_equal(seen[0], forward(initial, obs)[0][:, 0])


class TestBaselines:
    def test_network_counts(self):
        def count(agent):
            actors, critics = agent.components()
            return len(actors) + len(critics)

        assert count(SabppoAgent(OBS_DIM, BRANCHES, seed=0)) == 2
        assert count(IterRlAgent(OBS_DIM, BRANCHES, seed=0)) == 8
        assert count(HappoAgent(OBS_DIM, BRANCHES, seed=0)) == 5

    def test_single_branch_degenerate_equivalence(self):
        # with one branch every learner is plain PPO; identical seeds must
        # produce identical updates
        branch = [BranchSpec("selection", "topk", 6, 2)]
        cfg = PpoConfig(segment=40, minibatch=20, epochs=2)
        agents = {
            "sabppo": SabppoAgent(12, branch, cfg=cfg, seed=42),
            "iterrl": IterRlAgent(12, branch, cfg=cfg, seed=42),
            "happo": HappoAgent(12, branch, cfg=cfg, seed=42),
        }
        data_rng = np.random.default_rng(17)
        observations = data_rng.standard_normal((41, 12))
        rewards = data_rng.standard_normal(40)
        stats = {}
        for name, agent in agents.items():
            buffer = agent.make_buffer()
            for t in range(40):
                sa = agent.act(observations[t])
                buffer.add(observations[t], sa, rewards[t], t % 8 == 7,
                           observations[t + 1])
            stats[name] = agent.update(buffer)
        for key in ("policy_loss", "value_loss", "entropy", "clip_frac"):
            assert stats["iterrl"][key] == pytest.approx(stats["sabppo"][key],
                                                         abs=1e-10)
            assert stats["happo"][key] == pytest.approx(stats["sabppo"][key],
                                                        abs=1e-10)
        # updated parameters agree as well
        sab = agents["sabppo"]
        for other in ("iterrl", "happo"):
            unit = agents[other].units[0]
            for w_a, w_b in zip(sab.units[0].nets[0].weights,
                                unit.nets[0].weights):
                assert np.allclose(w_a, w_b, atol=1e-12)

    @pytest.mark.parametrize("copied", [(0, 1, 2, 3), (2,)])
    def test_iterrl_with_happo_critic_updates_like_happo(self, copied):
        # IterRL differs from HAPPO only in its critics, unit i reading
        # critic i: where that critic equals HAPPO's one critic, the unit
        # updates bit-identically to HAPPO's; elsewhere it does not. Critic 0
        # is initialised from the same stream as HAPPO's critic.
        cfg = PpoConfig(segment=24, minibatch=10, epochs=2)
        happo = HappoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=11)
        iterrl = IterRlAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=11)
        buffer = rollout_env(happo, seed=11)
        for c in copied:
            iterrl.critics[c] = copy.deepcopy(happo.critics[0])
        happo.update(buffer)
        iterrl.update(buffer)
        for i, (h, r) in enumerate(zip(happo.units, iterrl.units)):
            same = all(np.array_equal(a, b)
                       for a, b in zip(h.opt.params, r.opt.params))
            assert same == (i in copied or i == 0)

    def test_baseline_updates_run(self):
        for cls in (IterRlAgent, HappoAgent):
            cfg = PpoConfig(segment=20, minibatch=10, epochs=1)
            agent = cls(OBS_DIM, BRANCHES, cfg=cfg, seed=2)
            buffer = rollout_env(agent, seed=2, steps=20)
            stats = agent.update(buffer)
            assert np.isfinite(stats["policy_loss"])
            assert np.isfinite(stats["value_loss"])

    def test_empty_buffer_rejected(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=0)
        with pytest.raises(ValueError):
            agent.update(agent.make_buffer())


class TestRandomPolicy:
    def test_selection_frequency(self):
        policy = RandomPolicy(BRANCHES, seed=0)
        obs = np.zeros(OBS_DIM)
        counts = np.zeros(10)
        n_draws = 10_000
        for _ in range(n_draws):
            counts[policy.act(obs).branch_actions[0]] += 1
        assert np.allclose(counts / n_draws, 0.5, atol=0.02)

    def test_retention_marginals_uniform(self):
        policy = RandomPolicy(BRANCHES, seed=1)
        obs = np.zeros(OBS_DIM)
        counts = np.zeros(4)
        for _ in range(4000):
            for idx in policy.act(obs).branch_actions[3]:
                counts[idx] += 1
        assert np.allclose(counts / counts.sum(), 0.25, atol=0.02)

    def test_deterministic_under_seed(self):
        obs = np.zeros(OBS_DIM)
        a = [RandomPolicy(BRANCHES, seed=5).act(obs).branch_actions
             for _ in range(1)][0]
        b = [RandomPolicy(BRANCHES, seed=5).act(obs).branch_actions
             for _ in range(1)][0]
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_draws_each_branch_straight_from_the_sample_stream(self):
        # the selection, then the three level branches, in branch order,
        # whatever the observation; the selection is the Gumbel-top-k draw
        # of equal logits, on the sorting, all-selected and partition paths
        # of ``_top_k``
        obs_rng = np.random.default_rng(0)
        for n, k in ((10, 5), (300, 300), (1000, 50)):
            branches = default_branches(n, k, 4, 4)
            policy = RandomPolicy(branches, seed=5)
            rng = stream(5, 1)
            for obs in obs_rng.standard_normal((300, OBS_DIM)):
                want = [agents_module._sample_topk(np.zeros(n), k, rng)]
                want += [rng.integers(0, spec.n_options, size=spec.slots)
                         for spec in branches[1:]]
                got = policy.act(obs).branch_actions
                assert all(np.array_equal(x, y)
                           for x, y in zip(got, want, strict=True))
            assert (policy.sample_rng.bit_generator.state
                    == rng.bit_generator.state)
        with pytest.raises(ValueError, match="11 distinct items from 10"):
            RandomPolicy(default_branches(10, 11, 4, 4)).act(np.zeros(OBS_DIM))


class TestFixedFullModelPolicy:
    def test_equal_levels_and_top_retention(self):
        policy = FixedFullModelPolicy(BRANCHES, seed=0)
        sa = policy.act(np.zeros(OBS_DIM))
        assert np.array_equal(sa.branch_actions[1], np.zeros(5, dtype=int))
        assert np.array_equal(sa.branch_actions[2], np.zeros(5, dtype=int))
        assert np.array_equal(sa.branch_actions[3], np.full(5, 3))

    def test_selection_varies(self):
        policy = FixedFullModelPolicy(BRANCHES, seed=0)
        sels = {tuple(policy.act(np.zeros(OBS_DIM)).branch_actions[0])
                for _ in range(20)}
        assert len(sels) > 1


class TestToyWorldLearning:
    def test_training_beats_initial_policy(self):
        # small world with tight memory, so an arbitrary initial policy pays
        # penalties that training learns to avoid; improvements must show up
        # across seeds (sign test)
        params = dataclasses.replace(
            EnvParams(), n_devices=4, select_k=2, rounds=10,
            memory_capacity_range=(2.0e9, 4.0e9))
        cfg = PpoConfig(segment=50, minibatch=25, epochs=4)
        improved = 0
        seeds = range(5)
        for seed in seeds:
            agent = SabppoAgent(params.observation_dim,
                                default_branches(4, 2, 4, 4),
                                cfg=cfg, seed=seed)
            before = self._mean_eval_reward(params, agent, seed)
            env = AdaptiveFedEnv(params)
            buffer = agent.make_buffer()
            obs = env.reset(seed=seed)
            episode = 0
            for _ in range(5000):
                sa = agent.act(obs)
                bundle = env.decode_branch_actions(*sa.branch_actions)
                nxt, reward, done = env.step(bundle)
                buffer.add(obs, sa, reward.total, done, nxt)
                if buffer.full:
                    agent.update(buffer)
                    buffer.clear()
                if done:
                    episode += 1
                    obs = env.reset(seed=seed + 7919 * episode)
                else:
                    obs = nxt
            after = self._mean_eval_reward(params, agent, seed)
            improved += after > before
        assert improved >= 4, f"improved on only {improved}/5 seeds"

    @staticmethod
    def _mean_eval_reward(params, agent, seed, episodes=20):
        env = AdaptiveFedEnv(params)
        totals = []
        for ep in range(episodes):
            obs = env.reset(seed=100_000 + seed * 131 + ep)
            done = False
            total = 0.0
            while not done:
                sa = agent.act(obs, greedy=True)
                bundle = env.decode_branch_actions(*sa.branch_actions)
                obs, reward, done = env.step(bundle)
                total += reward.total
            totals.append(total)
        return float(np.mean(totals))
