"""Controllers: branch-chained PPO plus baselines.

The branched controller factors the joint action into four heads evaluated in
sequence (device selection, bandwidth levels, power levels, retention), each
consuming the observation concatenated with encodings of the actions already
taken. One critic with a hard-synced target network supplies advantages via
GAE.

The three learners are one PPO update (``_PpoAgentBase``) and differ only in
how the heads are grouped into actor units and which critic feeds each unit:
SABPPO has one unit over the chained heads and one critic; IterRL and HAPPO
have one unit per head, fed the base observation, with a critic per unit
(IterRL) or one shared critic (HAPPO). Each unit's ratio is that of its own
joint action, the sum of its heads' log-probs. Two sampling baselines, random
and fixed full-model, run the same chain without networks.

All stochastic draws go through named per-agent streams so that runs are
bit-reproducible: head ``b`` is initialised from ``(seed, 0, b)``, actor unit
``i`` shuffles with ``(seed, 2, i)``, critic ``c`` is initialised from
``(seed, 0, 100 + c)`` and shuffles with ``(seed, 3, c)``, and actions are
drawn from ``(seed, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .neural import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    forward_cached,
    log_softmax,
)
from .simcore import stream

__all__ = [
    "PpoConfig",
    "BranchSpec",
    "default_branches",
    "StepAction",
    "TrajectoryBuffer",
    "gae",
    "SabppoAgent",
    "IterRlAgent",
    "HappoAgent",
    "RandomPolicy",
    "FixedFullModelPolicy",
]


@dataclass(frozen=True)
class PpoConfig:
    clip_eps: float = 0.2
    gamma: float = 0.99
    lam: float = 0.95
    epochs: int = 4            # optimisation passes per collected segment
    minibatch: int = 64
    segment: int = 100         # trajectory segment length
    target_sync: int = 512     # critic target hard-copy interval, in updates
    entropy_coef: float = 0.01
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    normalize_advantages: bool = True
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.lam <= 1.0):
            raise ValueError("gamma and lambda must lie in (0, 1]")
        if self.epochs < 1 or self.target_sync < 1:
            raise ValueError("epochs and target sync interval must be >= 1")


@dataclass(frozen=True)
class BranchSpec:
    """One action head.

    kind "topk" draws ``slots`` distinct indices out of ``n_options`` without
    replacement. kind "rows" applies one weight-shared head per selected
    device (the head sees the chained state plus that device's own features),
    so the per-device mapping generalises across devices. ``encode_width`` is
    the width of the feature block this branch appends to the chained state
    for downstream branches.
    """

    name: str
    kind: str
    n_options: int
    slots: int
    encode_width: int


def default_branches(n_devices: int, select_k: int, levels: int,
                     grid_size: int) -> list[BranchSpec]:
    return [
        BranchSpec("selection", "topk", n_devices, select_k, n_devices),
        BranchSpec("bandwidth", "rows", levels, select_k, n_devices),
        BranchSpec("power", "rows", levels, select_k, n_devices),
        BranchSpec("retention", "rows", grid_size, select_k, 0),
    ]


@dataclass
class StepAction:
    """What the controller hands back for one environment step."""

    branch_actions: list[np.ndarray]   # one int array per branch
    branch_logps: np.ndarray
    inputs: list[np.ndarray]           # chained branch inputs, s1 first


class TrajectoryBuffer:
    """Fixed-capacity per-segment storage for PPO updates."""

    def __init__(self, capacity: int, input_dims: list[int], slots: list[int]):
        self.capacity = capacity
        self.n_branches = len(input_dims)
        self.inputs = [np.zeros((capacity, d)) for d in input_dims]
        self.actions = [np.zeros((capacity, s), dtype=int) for s in slots]
        self.branch_logps = np.zeros((capacity, self.n_branches))
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.final_obs = None
        self.size = 0

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def add(self, step: StepAction, reward: float, done: bool,
            next_obs: np.ndarray):
        i = self.size
        if i >= self.capacity:
            raise RuntimeError("trajectory buffer is full")
        for b in range(self.n_branches):
            self.inputs[b][i] = step.inputs[b]
            self.actions[b][i] = step.branch_actions[b]
        self.branch_logps[i] = step.branch_logps
        self.rewards[i] = reward
        self.dones[i] = done
        self.final_obs = next_obs
        self.size += 1

    def clear(self):
        self.size = 0
        self.final_obs = None


def gae(rewards, values, next_values, dones, gamma: float, lam: float) -> np.ndarray:
    """Generalized advantage estimation, truncated at episode/segment ends."""
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    next_values = np.asarray(next_values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    if not (len(rewards) == len(values) == len(next_values) == len(dones)):
        raise ValueError("gae inputs must have equal length")
    n = len(rewards)
    adv = np.zeros(n)
    running = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * nonterminal * next_values[t] - values[t]
        running = delta + gamma * lam * nonterminal * running
        adv[t] = running
    return adv


# ---------------------------------------------------------------------------
# branch evaluation used by sampling and by updates
# ---------------------------------------------------------------------------


def _topk_greedy(logits: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-logits, kind="stable")[:k]


def _sample_topk(logits: np.ndarray, k: int, rng: np.random.Generator):
    """Gumbel-top-k draw of k distinct indices; distribution identical to
    sequential softmax sampling without replacement (Plackett-Luce)."""
    if k > len(logits):
        raise ValueError(f"cannot draw {k} distinct items from {len(logits)}")
    noisy = logits + rng.gumbel(size=logits.shape)
    order = np.argsort(-noisy, kind="stable")[:k]
    return order


def _topk_log_prob(logits: np.ndarray, indices) -> float:
    """Plackett-Luce log-probability of drawing ``indices`` in order.

    Draw j picks from the unchosen logits plus indices[j:], so its
    log-normaliser is logaddexp(logsumexp(unchosen), logsumexp(chosen[j:]));
    one reversed cumulative logaddexp gives all K of them in O(N + K).
    """
    idx = np.asarray(indices, dtype=int)
    unchosen = np.ones(len(logits), dtype=bool)
    unchosen[idx] = False
    if unchosen.sum() != len(logits) - len(idx):
        raise ValueError("indices must be distinct")
    z = logits - logits.max()
    chosen = z[idx]
    tail = np.logaddexp.accumulate(chosen[::-1])[::-1]
    log_rest = np.logaddexp.reduce(z[unchosen])  # -inf when K = N
    return float((chosen - np.logaddexp(log_rest, tail)).sum())


def _row_features(chain: np.ndarray, selection: np.ndarray,
                  n_devices: int) -> np.ndarray:
    """Per-row features of a weight-shared per-device head, one row per
    (sample, slot): the device's own observation features (gain, capacity,
    exchange count) and its own slice of every encoding appended so far.
    The head's input row is ``[chain[s] | features]``; ``neural`` takes the
    two parts apart (a factored input). Relies on the observation layout
    [gains | capacities | exchange counts | clock]."""
    m, k = selection.shape
    n_enc = (chain.shape[1] - (3 * n_devices + 1)) // n_devices
    if n_enc < 0:
        raise ValueError("chained state narrower than the observation layout")
    offsets = np.concatenate([np.arange(3) * n_devices,
                              3 * n_devices + 1 + np.arange(n_enc) * n_devices])
    cols = (selection[:, :, None] + offsets).reshape(m, k * len(offsets))
    return np.take_along_axis(chain, cols, axis=1).reshape(m * k, len(offsets))


@dataclass
class BranchPass:
    """Batched branch evaluation with everything updates need.

    For "rows" branches the gradient arrays have one row per (sample, device)
    pair; ``rows_per_sample`` records the expansion factor, and
    ``activations[0]`` is the factored input ``(inputs, row features)``.
    """

    logp: np.ndarray           # (M,)
    grad_logp: np.ndarray      # (M * rows, out_dim), d logp_i / d logits
    entropy: np.ndarray        # (M,)
    grad_entropy: np.ndarray   # (M * rows, out_dim)
    activations: list
    rows_per_sample: int = 1


def _eval_rows(net: Mlp, spec: BranchSpec, inputs: np.ndarray,
               actions: np.ndarray, selection: np.ndarray,
               n_devices: int) -> BranchPass:
    m, k = selection.shape
    out, acts = forward_cached(net, inputs,        # (M*K, L)
                               _row_features(inputs, selection, n_devices))
    lp = log_softmax(out)
    p = np.exp(lp)
    flat = actions.reshape(-1)
    ar = np.arange(m * k)
    logp = lp[ar, flat].reshape(m, k).sum(axis=1)
    grad = -p
    grad[ar, flat] += 1.0
    ent_rows = -(p * lp).sum(axis=1)
    entropy = ent_rows.reshape(m, k).sum(axis=1)
    grad_ent = -p * (lp + ent_rows[:, None])
    return BranchPass(logp, grad, entropy, grad_ent, acts, rows_per_sample=k)


def _eval_topk(net: Mlp, spec: BranchSpec, inputs: np.ndarray,
               actions: np.ndarray) -> BranchPass:
    out, acts = forward_cached(net, inputs)
    m, n = out.shape
    rows = np.arange(m)
    available = np.ones((m, n), dtype=bool)
    logp = np.zeros(m)
    grad_logp = np.zeros((m, n))
    entropy = np.zeros(m)
    grad_ent = np.zeros((m, n))
    for k in range(spec.slots):
        masked = np.where(available, out, -np.inf)
        lp = log_softmax(masked)
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
    return BranchPass(logp, grad_logp, entropy, grad_ent, acts)


def _eval_branch(net, spec, inputs, actions, selection=None,
                 n_devices: int = 0) -> BranchPass:
    if spec.kind == "topk":
        return _eval_topk(net, spec, inputs, actions)
    return _eval_rows(net, spec, inputs, actions, np.asarray(selection),
                      n_devices)


def _encode_branch_action(spec: BranchSpec, action: np.ndarray,
                          selection: np.ndarray, n_devices: int) -> np.ndarray:
    """Feature block appended to the chained state after a branch acts."""
    if spec.encode_width == 0:
        return np.zeros(0)
    vec = np.zeros(spec.encode_width)
    if spec.kind == "topk":
        vec[action] = 1.0
    else:
        levels = action + 1.0
        vec[selection] = levels / levels.sum()
    return vec


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------


class _CriticBundle:
    """Critic, its frozen target, optimiser, counter and shuffle stream."""

    def __init__(self, obs_dim, cfg: PpoConfig, seed: int, index: int):
        init_rng = stream(seed, 0, 100 + index)
        self.net = Mlp.init([obs_dim, *cfg.hidden, 1], init_rng)
        self.target = self.net.clone()
        self.opt = AdamState.for_params(self.net.parameters(), lr=cfg.critic_lr)
        self.updates = 0
        self.shuffle = stream(seed, 3, index)

    def target_values(self, batch: np.ndarray) -> np.ndarray:
        return forward(self.target, batch)[:, 0]

    def minibatch_update(self, inputs, targets, sync_interval) -> float:
        pred, acts = forward_cached(self.net, inputs)
        err = pred[:, 0] - targets
        loss = float((err ** 2).mean())
        upstream = (2.0 * err / len(err))[:, None]
        grads = backward(self.net, inputs, upstream, acts)
        adam_step(self.net.parameters(), grads, self.opt)
        self.updates += 1
        if self.updates % sync_interval == 0:
            self.target = self.net.clone()
        return loss


class _ActorUnit:
    """The heads of branches ``branch_ids``, updated together under one
    optimiser and one shuffle stream."""

    def __init__(self, branch_ids: list[int], branches: list[BranchSpec],
                 input_dims: list[int], cfg: PpoConfig, seed: int, index: int):
        self.branch_ids = branch_ids
        self.nets = [Mlp.init([input_dims[b], *cfg.hidden,
                               branches[b].n_options], stream(seed, 0, b))
                     for b in branch_ids]
        self.opt = AdamState.for_params(self.parameters(), lr=cfg.actor_lr)
        self.shuffle = stream(seed, 2, index)

    def parameters(self):
        return [p for net in self.nets for p in net.parameters()]


class _ChainPolicy:
    """Runs the branch chain once per step; subclasses choose each branch's
    action. Chained inputs are always recorded so the trajectory layout is
    identical across agent kinds."""

    chained = True
    network_count = 0

    def __init__(self, branches: list[BranchSpec], seed: int = 0):
        self.branches = branches
        self.sample_rng = stream(seed, 1)
        self.n_devices = branches[0].n_options

    def act(self, obs: np.ndarray, greedy: bool = False) -> StepAction:
        obs = np.asarray(obs, dtype=float)
        chain = obs
        inputs, actions, logps = [], [], []
        selection = None
        for b, spec in enumerate(self.branches):
            inputs.append(chain)
            action, logp = self._branch_action(
                b, spec, chain if self.chained else obs, selection, greedy)
            action = np.asarray(action, dtype=int)
            if spec.kind == "topk":
                selection = action
            actions.append(action)
            logps.append(logp)
            enc = _encode_branch_action(spec, action, selection, self.n_devices)
            if enc.size:
                chain = np.concatenate([chain, enc])
        return StepAction(branch_actions=actions, branch_logps=np.array(logps),
                          inputs=inputs)

    def update(self, buffer) -> dict:
        return {}

    def components(self):
        return [], []

    def rng_streams(self) -> dict:
        return {"sample": self.sample_rng}


class _PpoAgentBase(_ChainPolicy):
    """The PPO learner of all three controllers.

    A chained agent has one actor unit over every branch, each head fed the
    chained state; an unchained agent has one unit per branch, each head fed
    the base observation. Every unit's ratio is that of its own joint action.
    There is one critic, or one per unit when ``critic_per_unit`` is set.
    """

    critic_per_unit = False

    def __init__(self, obs_dim: int, branches: list[BranchSpec],
                 cfg: PpoConfig | None = None, seed: int = 0):
        super().__init__(branches, seed)
        self.obs_dim = obs_dim
        self.cfg = cfg or PpoConfig()
        input_dims = self._input_dims()
        groups = ([list(range(len(branches)))] if self.chained
                  else [[b] for b in range(len(branches))])
        self.units = [_ActorUnit(ids, branches, input_dims, self.cfg, seed, i)
                      for i, ids in enumerate(groups)]
        n_critics = len(self.units) if self.critic_per_unit else 1
        self.critics = [_CriticBundle(obs_dim, self.cfg, seed, c)
                        for c in range(n_critics)]
        self.branch_nets = [net for unit in self.units for net in unit.nets]

    @property
    def network_count(self) -> int:
        return len(self.units) + len(self.critics)

    def components(self):
        return ([(f"actor{i}", u) for i, u in enumerate(self.units)],
                [(f"critic{c}", b) for c, b in enumerate(self.critics)])

    def _chain_dims(self) -> list[int]:
        """Width of the chained state each branch sees."""
        return list(accumulate((s.encode_width for s in self.branches[:-1]),
                               initial=self.obs_dim))

    def _input_dims(self) -> list[int]:
        """Input width of each head; a "rows" head also sees one column of
        each per-device block (see ``_row_features``)."""
        n = self.n_devices
        dims = []
        for spec, d in zip(self.branches, self._chain_dims()):
            if not self.chained:
                d = self.obs_dim
            if spec.kind == "rows":
                d += 3 + (d - (3 * n + 1)) // n
            dims.append(d)
        return dims

    def make_buffer(self) -> TrajectoryBuffer:
        return TrajectoryBuffer(self.cfg.segment, self._chain_dims(),
                                [s.slots for s in self.branches])

    def _branch_action(self, b, spec, net_in, selection, greedy):
        net = self.branch_nets[b]
        if spec.kind == "topk":
            logits = forward(net, net_in)
            if greedy:
                action = _topk_greedy(logits, spec.slots)
            else:
                action = _sample_topk(logits, spec.slots, self.sample_rng)
            return action, _topk_log_prob(logits, action)
        chain = net_in[None, :]
        feats = _row_features(chain, np.asarray(selection)[None, :],
                              self.n_devices)
        mat = forward(net, chain, feats)  # (K, L)
        if greedy:
            action = mat.argmax(axis=1)
        else:
            noisy = mat + self.sample_rng.gumbel(size=mat.shape)
            action = noisy.argmax(axis=1)
        return action, float(log_softmax(mat)[
            np.arange(len(selection)), action].sum())

    def _passes(self, unit: _ActorUnit, buffer: TrajectoryBuffer,
                idx) -> list[BranchPass]:
        """Evaluate the unit's heads on the stored samples ``idx``."""
        selection = buffer.actions[0][idx]
        return [_eval_branch(net, self.branches[b],
                             buffer.inputs[b if self.chained else 0][idx],
                             buffer.actions[b][idx], selection, self.n_devices)
                for b, net in zip(unit.branch_ids, unit.nets)]

    def evaluate_logps(self, buffer: TrajectoryBuffer) -> np.ndarray:
        """(M, branches) log-probs of the stored actions under the current
        parameters."""
        idx = slice(0, buffer.size)
        return np.column_stack([p.logp for unit in self.units
                                for p in self._passes(unit, buffer, idx)])

    def update(self, buffer: TrajectoryBuffer) -> dict:
        """Every unit's actor epochs against its critic's advantages, then
        every critic's epochs. Actors and critics share no state within an
        update, so this gives the same result as interleaving them."""
        if buffer.size == 0:
            raise ValueError("cannot update from an empty batch")
        returns = [self._advantages(buffer, critic) for critic in self.critics]
        advs = [self._normalized(adv) for adv, _ in returns]
        stats = {"policy_loss": [], "value_loss": [], "entropy": [],
                 "clip_frac": []}
        for i, unit in enumerate(self.units):
            adv = advs[i if self.critic_per_unit else 0]
            for _ in range(self.cfg.epochs):
                self._actor_epoch(unit, buffer, adv, stats)
        for critic, (_, targets) in zip(self.critics, returns):
            for _ in range(self.cfg.epochs):
                self._critic_epoch(critic, buffer, targets, stats)
        return {k: (float(np.mean(v)) if v else 0.0) for k, v in stats.items()}

    def _advantages(self, buffer: TrajectoryBuffer, critic: _CriticBundle):
        m = buffer.size
        obs = buffer.inputs[0][:m]
        v = critic.target_values(obs)
        v_next = np.empty(m)
        v_next[:-1] = v[1:]
        v_next[-1] = (critic.target_values(buffer.final_obs[None, :])[0]
                      if buffer.final_obs is not None else 0.0)
        adv = gae(buffer.rewards[:m], v, v_next, buffer.dones[:m],
                  self.cfg.gamma, self.cfg.lam)
        targets = adv + v
        return adv, targets

    def _normalized(self, adv: np.ndarray) -> np.ndarray:
        if not self.cfg.normalize_advantages:
            return adv
        std = adv.std()
        if std < 1e-8:
            return adv  # degenerate batch: proceed unnormalised
        return (adv - adv.mean()) / std

    def _actor_epoch(self, unit: _ActorUnit, buffer, adv, stats):
        """One clipped-surrogate epoch for one actor unit over shuffled
        minibatches. The ratio is that of the unit's joint action: the sum of
        its branches' log-probs, new against stored."""
        cfg = self.cfg
        m = buffer.size
        perm = unit.shuffle.permutation(m)
        for start in range(0, m, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            passes = self._passes(unit, buffer, idx)
            a = adv[idx]
            old = buffer.branch_logps[idx][:, unit.branch_ids].sum(axis=1)
            ratio = np.exp(sum(p.logp for p in passes) - old)
            surr1 = ratio * a
            surr2 = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * a
            inside = np.abs(ratio - 1.0) <= cfg.clip_eps
            coef = np.where((surr1 <= surr2) | inside, surr1, 0.0) / len(idx)
            grads = []
            for net, p in zip(unit.nets, passes):
                row_coef = np.repeat(coef, p.rows_per_sample)
                upstream = (row_coef[:, None] * p.grad_logp
                            + cfg.entropy_coef * p.grad_entropy / len(idx))
                grads.extend(backward(net, p.activations[0], -upstream,
                                      p.activations))
            adam_step(unit.parameters(), grads, unit.opt)
            stats["clip_frac"].append(float((~inside).mean()))
            stats["policy_loss"].append(
                -float(np.minimum(surr1, surr2).mean()))
            stats["entropy"].append(float(np.mean([p.entropy.mean()
                                                   for p in passes])))

    def _critic_epoch(self, critic: _CriticBundle, buffer, targets, stats):
        cfg = self.cfg
        m = buffer.size
        perm = critic.shuffle.permutation(m)
        obs = buffer.inputs[0][:m]
        for start in range(0, m, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            loss = critic.minibatch_update(obs[idx], targets[idx],
                                           cfg.target_sync)
            stats["value_loss"].append(loss)

    def rng_streams(self) -> dict:
        streams = super().rng_streams()
        actors, critics = self.components()
        for name, part in actors + critics:
            streams[f"{name}/shuffle"] = part.shuffle
        return streams


class SabppoAgent(_PpoAgentBase):
    """SABPPO: one actor unit over the chained heads, so the ratio is that of
    the joint action, and one critic with a hard-synced target."""


class IterRlAgent(_PpoAgentBase):
    """IterRL: an independent actor-critic learner per branch; every head
    sees the base observation."""

    chained = False
    critic_per_unit = True


class HappoAgent(_PpoAgentBase):
    """HAPPO (Kuba et al., ICLR 2022): a separate actor per branch, each with
    its own ratio, all fed the advantages of one shared critic; every head
    sees the base observation."""

    chained = False


class RandomPolicy(_ChainPolicy):
    """Uniform over every branch's space; feasible by construction."""

    def _branch_action(self, b, spec, net_in, selection, greedy):
        if spec.kind == "topk":
            action = _sample_topk(np.zeros(spec.n_options), spec.slots,
                                  self.sample_rng)
            # Plackett-Luce with equal logits: prod_j 1 / (N - j)
            return action, -float(np.log(spec.n_options
                                         - np.arange(spec.slots)).sum())
        action = self.sample_rng.integers(0, spec.n_options, size=spec.slots)
        return action, -spec.slots * float(np.log(spec.n_options))


class FixedFullModelPolicy(RandomPolicy):
    """Baseline for full-model federated runs: seeded uniform selection,
    equal resource levels, retention pinned to the top of the grid."""

    def _branch_action(self, b, spec, net_in, selection, greedy):
        if spec.kind == "topk":
            return super()._branch_action(b, spec, net_in, selection, greedy)
        level = spec.n_options - 1 if spec.name == "retention" else 0
        return np.full(spec.slots, level), 0.0
