"""Controllers: branch-chained PPO plus baselines.

The branched controller factors the joint action into four heads evaluated in
sequence (device selection, bandwidth levels, power levels, retention), each
consuming the observation concatenated with encodings of the actions already
taken. One critic with a hard-synced target network supplies advantages via
GAE. Baselines reuse the same branch math: independent per-branch
actor-critic learners, and separate per-branch actors sharing one critic.

All stochastic draws go through named per-agent streams so that runs are
bit-reproducible and so the three update paths consume randomness from
comparable sources.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def out_dim(self) -> int:
        return self.n_options


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
    joint_logp: float
    inputs: list[np.ndarray]           # chained branch inputs, s1 first


class TrajectoryBuffer:
    """Fixed-capacity per-segment storage for PPO updates."""

    def __init__(self, capacity: int, input_dims: list[int], slots: list[int]):
        self.capacity = capacity
        self.n_branches = len(input_dims)
        self.inputs = [np.zeros((capacity, d)) for d in input_dims]
        self.actions = [np.zeros((capacity, s), dtype=int) for s in slots]
        self.branch_logps = np.zeros((capacity, self.n_branches))
        self.joint_logps = np.zeros(capacity)
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
        self.joint_logps[i] = step.joint_logp
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
    """Plackett-Luce log-probability of drawing ``indices`` in order."""
    available = np.ones(len(logits), dtype=bool)
    logp = 0.0
    for idx in indices:
        if not available[idx]:
            raise ValueError("indices must be distinct")
        masked = np.where(available, logits, -np.inf)
        logp += float(log_softmax(masked)[idx])
        available[idx] = False
    return logp


def _row_head_inputs(chain: np.ndarray, selection: np.ndarray,
                     n_devices: int) -> np.ndarray:
    """Inputs for a weight-shared per-device head: the chained state plus the
    device's own observation features (gain, capacity, exchange count) and
    its own slice of every encoding appended so far. Relies on the
    observation layout [gains | capacities | exchange counts | clock]."""
    m, k = selection.shape
    dim = chain.shape[1]
    n_enc = (dim - (3 * n_devices + 1)) // n_devices
    if n_enc < 0:
        raise ValueError("chained state narrower than the observation layout")
    rows = np.repeat(np.arange(m), k)
    sel = selection.reshape(-1)
    feats = [chain[rows, sel], chain[rows, n_devices + sel],
             chain[rows, 2 * n_devices + sel]]
    offset = 3 * n_devices + 1
    for j in range(n_enc):
        feats.append(chain[rows, offset + j * n_devices + sel])
    return np.concatenate([chain[rows], np.stack(feats, axis=1)], axis=1)


def row_head_extra_features(chain_dim: int, n_devices: int) -> int:
    return 3 + (chain_dim - (3 * n_devices + 1)) // n_devices


@dataclass
class BranchPass:
    """Batched branch evaluation with everything updates need.

    For "rows" branches the gradient arrays have one row per (sample, device)
    pair; ``rows_per_sample`` records the expansion factor.
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
    row_in = _row_head_inputs(inputs, selection, n_devices)
    out, acts = forward_cached(net, row_in)       # (M*K, L)
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
    """A group of branch heads updated together under one optimiser."""

    def __init__(self, specs: list[BranchSpec], input_dims: list[int],
                 cfg: PpoConfig, seed: int, index: int):
        self.specs = specs
        self.nets = []
        for j, (spec, dim) in enumerate(zip(specs, input_dims)):
            init_rng = stream(seed, 0, index + j)
            self.nets.append(Mlp.init([dim, *cfg.hidden, spec.out_dim], init_rng))
        params = []
        for net in self.nets:
            params.extend(net.parameters())
        self.opt = AdamState.for_params(params, lr=cfg.actor_lr)
        self.shuffle = stream(seed, 2, index)

    def parameters(self):
        params = []
        for net in self.nets:
            params.extend(net.parameters())
        return params


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
        logps = np.array(logps)
        return StepAction(
            branch_actions=actions,
            branch_logps=logps,
            joint_logp=float(logps.sum()),
            inputs=inputs,
        )

    def update(self, buffer) -> dict:
        return {}

    def components(self):
        return [], []

    def rng_streams(self) -> dict:
        return {"sample": self.sample_rng}


class _PpoAgentBase(_ChainPolicy):
    """Shared collection/update machinery for the three learners."""

    def __init__(self, obs_dim: int, branches: list[BranchSpec],
                 cfg: PpoConfig | None = None, seed: int = 0,
                 chained: bool = True):
        super().__init__(branches, seed)
        self.obs_dim = obs_dim
        self.cfg = cfg or PpoConfig()
        self.chained = chained
        self.input_dims = self._input_dims()

    def _input_dims(self) -> list[int]:
        dims = []
        d = self.obs_dim
        for spec in self.branches:
            base = d if self.chained else self.obs_dim
            if spec.kind == "rows":
                base += row_head_extra_features(base, self.branches[0].n_options)
            dims.append(base)
            d += spec.encode_width
        return dims

    # subclasses provide: _branch_net(b)

    def make_buffer(self) -> TrajectoryBuffer:
        chained_dims = []
        d = self.obs_dim
        for spec in self.branches:
            chained_dims.append(d)
            d += spec.encode_width
        return TrajectoryBuffer(self.cfg.segment, chained_dims,
                                [s.slots for s in self.branches])

    def _branch_action(self, b, spec, net_in, selection, greedy):
        net = self._branch_net(b)
        if spec.kind == "topk":
            logits = forward(net, net_in)
            if greedy:
                action = _topk_greedy(logits, spec.slots)
            else:
                action = _sample_topk(logits, spec.slots, self.sample_rng)
            return action, _topk_log_prob(logits, action)
        row_in = _row_head_inputs(net_in[None, :],
                                  np.asarray(selection)[None, :],
                                  self.n_devices)
        mat = forward(net, row_in)  # (K, L)
        if greedy:
            action = mat.argmax(axis=1)
        else:
            noisy = mat + self.sample_rng.gumbel(size=mat.shape)
            action = noisy.argmax(axis=1)
        return action, float(log_softmax(mat)[
            np.arange(len(selection)), action].sum())

    def evaluate_logps(self, buffer: TrajectoryBuffer):
        """Per-branch and joint log-probs of the stored actions under the
        current parameters (no gradients)."""
        m = buffer.size
        selection = buffer.actions[0][:m]
        per_branch = np.zeros((m, len(self.branches)))
        for b, spec in enumerate(self.branches):
            inputs = (buffer.inputs[b][:m] if self.chained
                      else buffer.inputs[0][:m])
            ev = _eval_branch(self._branch_net(b), spec, inputs,
                              buffer.actions[b][:m], selection,
                              self.n_devices)
            per_branch[:, b] = ev.logp
        return per_branch.sum(axis=1), per_branch

    # -- update helpers -------------------------------------------------

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

    def _actor_epoch(self, unit: _ActorUnit, buffer, adv, old_logps,
                     joint: bool, stats):
        """One optimisation epoch for one actor unit over shuffled
        minibatches. ``joint`` selects whether the ratio uses the summed
        log-prob of all of the unit's branches or each branch alone (both are
        equivalent when the unit holds a single branch)."""
        cfg = self.cfg
        m = buffer.size
        perm = unit.shuffle.permutation(m)
        for start in range(0, m, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            selection = buffer.actions[0][idx]
            passes = []
            for j, spec in enumerate(unit.specs):
                b = self.branches.index(spec)
                inputs = (buffer.inputs[b][idx] if self.chained
                          else buffer.inputs[0][idx])
                passes.append((j, _eval_branch(unit.nets[j], spec, inputs,
                                               buffer.actions[b][idx],
                                               selection, self.n_devices)))
            a = adv[idx]
            grads = []
            obj_terms = []
            ent_terms = []

            def branch_grads(j, p, coef):
                if p.rows_per_sample > 1:
                    coef = np.repeat(coef, p.rows_per_sample)
                upstream = (coef[:, None] * p.grad_logp
                            + cfg.entropy_coef * p.grad_entropy / len(idx))
                grads.extend(backward(unit.nets[j], p.activations[0],
                                      -upstream, p.activations))
                ent_terms.append(p.entropy.mean())

            if joint:
                logp_new = sum(p.logp for _, p in passes)
                logp_old = old_logps[idx].sum(axis=1) if old_logps.ndim == 2 \
                    else old_logps[idx]
                ratio = np.exp(logp_new - logp_old)
                coef = self._surrogate_coef(ratio, a, stats)
                for j, p in passes:
                    branch_grads(j, p, coef)
                obj_terms.append(float(np.minimum(
                    ratio * a, np.clip(ratio, 1 - cfg.clip_eps,
                                       1 + cfg.clip_eps) * a).mean()))
            else:
                for j, p in passes:
                    b = self.branches.index(unit.specs[j])
                    ratio = np.exp(p.logp - old_logps[idx, b])
                    coef = self._surrogate_coef(ratio, a, stats)
                    branch_grads(j, p, coef)
                    obj_terms.append(float(np.minimum(
                        ratio * a, np.clip(ratio, 1 - cfg.clip_eps,
                                           1 + cfg.clip_eps) * a).mean()))
            adam_step(unit.parameters(), grads, unit.opt)
            stats["policy_loss"].append(-float(np.mean(obj_terms)))
            stats["entropy"].append(float(np.mean(ent_terms)))

    def _surrogate_coef(self, ratio, adv, stats):
        cfg = self.cfg
        surr1 = ratio * adv
        surr2 = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv
        inside = np.abs(ratio - 1.0) <= cfg.clip_eps
        active = (surr1 <= surr2) | inside
        stats["clip_frac"].append(float((~inside).mean()))
        return np.where(active, adv * ratio, 0.0) / len(ratio)

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

    @staticmethod
    def _finalize(stats) -> dict:
        return {k: (float(np.mean(v)) if v else 0.0) for k, v in stats.items()}

    @staticmethod
    def _new_stats() -> dict:
        return {"policy_loss": [], "value_loss": [], "entropy": [],
                "clip_frac": []}

    def rng_streams(self) -> dict:
        streams = super().rng_streams()
        actors, critics = self.components()
        for name, unit in actors:
            streams[f"{name}/shuffle"] = unit.shuffle
        for name, bundle in critics:
            streams[f"{name}/shuffle"] = bundle.shuffle
        return streams


class SabppoAgent(_PpoAgentBase):
    """Single branched actor (joint ratio) plus one critic with target."""

    def __init__(self, obs_dim, branches, cfg=None, seed=0):
        super().__init__(obs_dim, branches, cfg, seed, chained=True)
        self.actor = _ActorUnit(branches, self.input_dims, self.cfg, seed, 0)
        self.critic = _CriticBundle(obs_dim, self.cfg, seed, 0)

    @property
    def network_count(self) -> int:
        return 2  # branched actor counts as one network, plus the critic

    def components(self):
        return [("actor0", self.actor)], [("critic0", self.critic)]

    def _branch_net(self, b):
        return self.actor.nets[b]

    def update(self, buffer: TrajectoryBuffer) -> dict:
        if buffer.size == 0:
            raise ValueError("cannot update from an empty batch")
        adv_raw, targets = self._advantages(buffer, self.critic)
        adv = self._normalized(adv_raw)
        stats = self._new_stats()
        old = buffer.joint_logps[:buffer.size]
        for _ in range(self.cfg.epochs):
            self._actor_epoch(self.actor, buffer, adv, old, True, stats)
            self._critic_epoch(self.critic, buffer, targets, stats)
        return self._finalize(stats)


class IterRlAgent(_PpoAgentBase):
    """Independent actor-critic learner per branch; all consume the base
    observation."""

    def __init__(self, obs_dim, branches, cfg=None, seed=0):
        super().__init__(obs_dim, branches, cfg, seed, chained=False)
        self.units = [
            _ActorUnit([spec], [self.input_dims[b]], self.cfg, seed, b)
            for b, spec in enumerate(branches)
        ]
        self.critics = [
            _CriticBundle(obs_dim, self.cfg, seed, b)
            for b in range(len(branches))
        ]

    @property
    def network_count(self) -> int:
        return 2 * len(self.branches)

    def components(self):
        return ([(f"actor{b}", u) for b, u in enumerate(self.units)],
                [(f"critic{b}", c) for b, c in enumerate(self.critics)])

    def _branch_net(self, b):
        return self.units[b].nets[0]

    def update(self, buffer: TrajectoryBuffer) -> dict:
        if buffer.size == 0:
            raise ValueError("cannot update from an empty batch")
        stats = self._new_stats()
        old = buffer.branch_logps[:buffer.size]
        for b, unit in enumerate(self.units):
            critic = self.critics[b]
            adv_raw, targets = self._advantages(buffer, critic)
            adv = self._normalized(adv_raw)
            for _ in range(self.cfg.epochs):
                self._actor_epoch(unit, buffer, adv, old, False, stats)
            for _ in range(self.cfg.epochs):
                self._critic_epoch(critic, buffer, targets, stats)
        return self._finalize(stats)


class HappoAgent(_PpoAgentBase):
    """Separate per-branch actors sharing a single critic, updated
    simultaneously with per-branch ratios."""

    def __init__(self, obs_dim, branches, cfg=None, seed=0):
        super().__init__(obs_dim, branches, cfg, seed, chained=False)
        self.units = [
            _ActorUnit([spec], [self.input_dims[b]], self.cfg, seed, b)
            for b, spec in enumerate(branches)
        ]
        self.critic = _CriticBundle(obs_dim, self.cfg, seed, 0)

    @property
    def network_count(self) -> int:
        return len(self.branches) + 1

    def components(self):
        return ([(f"actor{b}", u) for b, u in enumerate(self.units)],
                [("critic0", self.critic)])

    def _branch_net(self, b):
        return self.units[b].nets[0]

    def update(self, buffer: TrajectoryBuffer) -> dict:
        if buffer.size == 0:
            raise ValueError("cannot update from an empty batch")
        adv_raw, targets = self._advantages(buffer, self.critic)
        adv = self._normalized(adv_raw)
        stats = self._new_stats()
        old = buffer.branch_logps[:buffer.size]
        for unit in self.units:
            for _ in range(self.cfg.epochs):
                self._actor_epoch(unit, buffer, adv, old, False, stats)
        for _ in range(self.cfg.epochs):
            self._critic_epoch(self.critic, buffer, targets, stats)
        return self._finalize(stats)


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
