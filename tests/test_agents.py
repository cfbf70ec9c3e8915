import copy
import dataclasses

import numpy as np
import pytest

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
    _eval_branch,
    _row_features,
)
from fedemu.env import AdaptiveFedEnv, EnvParams
from fedemu.neural import adam_step, backward, forward, forward_cached, log_softmax

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
        buffer.add(sa, reward.total, done, nxt)
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
        obs = np.zeros(OBS_DIM)
        sa = agent.act(obs)
        assert [len(s) for s in sa.inputs] == [31, 41, 51, 61]

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


class TestRowHeads:
    def test_features_complete_the_concatenated_input(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=4)
        buffer = rollout_env(agent, seed=4, steps=12)
        selection = buffer.actions[0][:12]
        for chain in buffer.inputs[1:]:
            chain = chain[:12]
            got = np.concatenate([np.repeat(chain, 5, axis=0),
                                  _row_features(chain, selection, 10)], axis=1)
            assert np.array_equal(got, _row_head_inputs(chain, selection, 10))

    @pytest.mark.parametrize("agent_cls", [SabppoAgent, IterRlAgent])
    def test_eval_matches_concatenated_path(self, agent_cls):
        agent = agent_cls(OBS_DIM, BRANCHES, seed=5)
        buffer = rollout_env(agent, seed=5, steps=16)
        selection = buffer.actions[0][:16]
        rng = np.random.default_rng(5)
        for b in (1, 2, 3):
            net = agent.branch_nets[b]
            inputs = buffer.inputs[b if agent.chained else 0][:16]
            actions = buffer.actions[b][:16]
            ev = _eval_branch(net, agent.branches[b], inputs, actions,
                              selection, agent.n_devices)
            row_in = _row_head_inputs(inputs, selection, agent.n_devices)
            out, acts = forward_cached(net, row_in)
            lp = log_softmax(out)
            want_logp = lp[np.arange(80), actions.reshape(-1)].reshape(16, 5)
            assert np.allclose(ev.logp, want_logp.sum(axis=1),
                               rtol=1e-12, atol=0)
            upstream = rng.standard_normal(out.shape)
            for g, w in zip(backward(net, ev.activations[0], upstream,
                                     ev.activations),
                            backward(net, row_in, upstream, acts)):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


class TestRatioAndClip:
    def test_ratio_identity_before_updates(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=1)
        buffer = rollout_env(agent, seed=1)
        per_branch = agent.evaluate_logps(buffer)
        stored = buffer.branch_logps[:buffer.size]
        ratio = np.exp(per_branch.sum(axis=1) - stored.sum(axis=1))
        assert np.max(np.abs(ratio - 1.0)) < 1e-12
        assert np.allclose(per_branch, stored, atol=1e-12)

    def test_clipped_never_exceeds_unclipped(self):
        rng = np.random.default_rng(2)
        eps = 0.2
        for _ in range(2000):
            ratio = np.exp(rng.standard_normal() * 0.5)
            adv = rng.standard_normal() * 3
            clipped = min(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)
            assert clipped <= ratio * adv + 1e-15

    def test_zero_advantage_zero_entropy_no_actor_change(self):
        cfg = PpoConfig(entropy_coef=0.0, segment=32, minibatch=16,
                        normalize_advantages=False)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=4)
        buffer = rollout_env(agent, seed=4, steps=32)
        # constant reward + constant value function -> flat advantages? not
        # quite: make advantages exactly zero by zeroing rewards and critic
        for net in (agent.critics[0].net, agent.critics[0].target):
            for w in net.weights:
                w[...] = 0.0
            for b in net.biases:
                b[...] = 0.0
        buffer.rewards[:] = 0.0
        before = [p.copy() for p in agent.units[0].parameters()]
        agent.update(buffer)
        after = agent.units[0].parameters()
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_saturated_clip_gives_zero_gradient(self):
        cfg = PpoConfig(entropy_coef=0.0, segment=16, minibatch=16,
                        normalize_advantages=False)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=5)
        buffer = rollout_env(agent, seed=5, steps=16)
        # fake stored log-probs so every ratio lands at 1 + 2*eps
        buffer.branch_logps[:buffer.size] = agent.evaluate_logps(buffer)
        buffer.branch_logps[:buffer.size, 0] -= np.log(1 + 2 * cfg.clip_eps)
        # make advantages strictly positive: zero critic, positive rewards
        for net in (agent.critics[0].net, agent.critics[0].target):
            for w in net.weights:
                w[...] = 0.0
            for b in net.biases:
                b[...] = 0.0
        buffer.rewards[:] = 1.0
        before = [p.copy() for p in agent.units[0].parameters()]
        agent.update(buffer)
        for b, a in zip(before, agent.units[0].parameters()):
            assert np.array_equal(b, a)

    def test_unit_ratio_gradient_is_plain_policy_gradient(self):
        cfg = PpoConfig(entropy_coef=0.0, epochs=1, segment=24, minibatch=24,
                        normalize_advantages=False)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=6)
        buffer = rollout_env(agent, seed=6, steps=24)
        twin = copy.deepcopy(agent)

        # manual REINFORCE-style step: ratio is exactly 1 before updates, so
        # the surrogate gradient reduces to mean(adv * dlogp)
        adv, _ = twin._advantages(buffer, twin.critics[0])
        m = buffer.size
        unit = twin.units[0]
        perm = unit.shuffle.permutation(m)  # mirror the update's order
        idx = perm[:cfg.minibatch]
        grads = []
        selection = buffer.actions[0][idx]
        for b, spec in enumerate(twin.branches):
            ev = _eval_branch(unit.nets[b], spec, buffer.inputs[b][idx],
                              buffer.actions[b][idx], selection,
                              twin.n_devices)
            coef = adv[idx] / len(idx)
            if ev.rows_per_sample > 1:
                coef = np.repeat(coef, ev.rows_per_sample)
            upstream = coef[:, None] * ev.grad_logp
            grads.extend(backward(unit.nets[b], ev.activations[0],
                                  -upstream, ev.activations))
        adam_step(unit.parameters(), grads, unit.opt)

        agent.update(buffer)
        for manual, updated in zip(unit.parameters(),
                                   agent.units[0].parameters()):
            assert np.allclose(manual, updated, atol=1e-12)


class TestCriticAndTargets:
    def test_advantages_use_target_critic_only(self):
        agent = SabppoAgent(OBS_DIM, BRANCHES, seed=7)
        buffer = rollout_env(agent, seed=7, steps=50)
        adv_before, _ = agent._advantages(buffer, agent.critics[0])
        # trash the online critic; advantages must not move
        rng = np.random.default_rng(0)
        for w in agent.critics[0].net.weights:
            w += rng.standard_normal(w.shape)
        adv_after, _ = agent._advantages(buffer, agent.critics[0])
        assert np.array_equal(adv_before, adv_after)

    def test_target_frozen_within_sync_interval(self):
        cfg = PpoConfig(segment=32, minibatch=8, epochs=2, target_sync=10_000)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=8)
        buffer = rollout_env(agent, seed=8, steps=32)
        target_before = [w.copy() for w in agent.critics[0].target.weights]
        agent.update(buffer)
        assert any(not np.array_equal(a, b) for a, b in
                   zip(agent.critics[0].net.weights, target_before))
        for a, b in zip(agent.critics[0].target.weights, target_before):
            assert np.array_equal(a, b)

    def test_target_syncs_at_interval(self):
        cfg = PpoConfig(segment=32, minibatch=32, epochs=1, target_sync=1)
        agent = SabppoAgent(OBS_DIM, BRANCHES, cfg=cfg, seed=9)
        buffer = rollout_env(agent, seed=9, steps=32)
        agent.update(buffer)
        critic = agent.critics[0]
        for a, b in zip(critic.target.weights, critic.net.weights):
            assert np.array_equal(a, b)


class TestBaselines:
    def test_network_counts(self):
        assert SabppoAgent(OBS_DIM, BRANCHES, seed=0).network_count == 2
        assert IterRlAgent(OBS_DIM, BRANCHES, seed=0).network_count == 8
        assert HappoAgent(OBS_DIM, BRANCHES, seed=0).network_count == 5

    def test_single_branch_degenerate_equivalence(self):
        # with one branch every learner is plain PPO; identical seeds must
        # produce identical updates
        branch = [BranchSpec("selection", "topk", 6, 2, 0)]
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
                buffer.add(sa, rewards[t], t % 8 == 7, observations[t + 1])
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
                       for a, b in zip(h.parameters(), r.parameters()))
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
                buffer.add(sa, reward.total, done, nxt)
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
