"""Controllers: branch-chained PPO plus baselines.

The branched controller factors the joint action into four heads evaluated in
sequence (device selection, bandwidth levels, power levels, retention), each
consuming the observation concatenated with encodings of the actions already
taken. One critic supplies advantages via GAE, from its values at the start
of each update. ``act`` writes that chained state for its one sample into a
float32 row each agent keeps from step to step.

The PPO buffer holds each step's observation and branch actions. An update
derives from them, once, every head's input (the chained states rebuilt with
``act``'s encoder) and every rows head's per-device features; each minibatch
gathers from both. The behaviour log-probs come from the log-prob part alone
of each head's evaluation, under the update's starting parameters, which
collected the whole segment.

The three learners are one PPO update (``_PpoAgentBase``) and differ only in
how the heads are grouped into actor units and which critic feeds each unit:
SABPPO has one unit over the chained heads and one critic; IterRL and HAPPO
have one unit per head, fed the base observation, with a critic per unit
(IterRL) or one shared critic (HAPPO). Each unit's ratio is that of its own
joint action, the sum of its heads' log-probs. Two sampling baselines, random
and fixed full-model, draw each branch's action straight from the sample
stream, with no networks and no chain; a selection ranks plain uniforms.

All stochastic draws go through named per-agent streams so that runs are
bit-reproducible: head ``b`` is initialised from ``(seed, 0, b)``, actor unit
``i`` shuffles with ``(seed, 2, i)``, critic ``c`` is initialised from
``(seed, 0, 100 + c)`` and shuffles with ``(seed, 3, c)``, and actions are
drawn from ``(seed, 1)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .neural import (
    AdamState,
    Mlp,
    Scratch,
    adam_step,
    backward,
    forward,
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
    entropy_coef: float = 0.01
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip epsilon must lie in (0, 1)")
        if not (0.0 < self.gamma <= 1.0 and 0.0 < self.lam <= 1.0):
            raise ValueError("gamma and lambda must lie in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.segment < 1:
            raise ValueError("segment must be >= 1")
        if self.minibatch < 1:
            raise ValueError("minibatch must be >= 1")


@dataclass(frozen=True)
class BranchSpec:
    """One action head.

    kind "topk" draws ``slots`` distinct indices out of ``n_options`` without
    replacement. kind "rows" applies one weight-shared head per selected
    device (the head sees the chained state plus that device's own features),
    so the per-device mapping generalises across devices. Every branch but
    the last appends an N-wide block to the chained state (see
    ``_encode``).
    """

    name: str
    kind: str
    n_options: int
    slots: int


def default_branches(n_devices: int, select_k: int, levels: int,
                     grid_size: int) -> list[BranchSpec]:
    return [
        BranchSpec("selection", "topk", n_devices, select_k),
        BranchSpec("bandwidth", "rows", levels, select_k),
        BranchSpec("power", "rows", levels, select_k),
        BranchSpec("retention", "rows", grid_size, select_k),
    ]


@dataclass
class StepAction:
    """What the controller hands back for one environment step."""

    branch_actions: list[np.ndarray]   # one int array per branch


class TrajectoryBuffer:
    """Fixed-capacity per-segment storage for PPO updates: each step's
    observation, one action array per branch, the reward, the done flag and
    the latest next observation. Head inputs and behaviour log-probs are
    derived from these in the update."""

    def __init__(self, capacity: int, obs_dim: int, slots: list[int]):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim), np.float32)
        self.actions = [np.zeros((capacity, s), dtype=int) for s in slots]
        self.rewards = np.zeros(capacity)
        self.dones = np.zeros(capacity, dtype=bool)
        self.final_obs = None
        self.size = 0

    @property
    def full(self) -> bool:
        return self.size >= self.capacity

    def add(self, obs: np.ndarray, step: StepAction, reward: float,
            done: bool, next_obs: np.ndarray):
        i = self.size
        if i >= self.capacity:
            raise RuntimeError("trajectory buffer is full")
        self.obs[i] = obs
        for store, a in zip(self.actions, step.branch_actions, strict=True):
            store[i] = a
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

_PARTITION_FROM = 256   # from about this many keys np.partition beats a sort


def _top_k(x: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-x, kind="stable")[:k]`` for finite keys, k <= len(x);
    from ``_PARTITION_FROM`` keys on it sorts only the keys at or above the
    k-th largest, which the stable sort keeps in index order among equals."""
    if k > len(x):
        raise ValueError(f"cannot draw {k} distinct items from {len(x)}")
    if len(x) < _PARTITION_FROM:
        return (-x).argsort(kind="stable")[:k]
    neg = -x
    kth = np.partition(neg, k - 1)[k - 1]
    top = (neg <= kth).nonzero()[0]
    return top[neg[top].argsort(kind="stable")[:k]]


def _sample_topk(logits: np.ndarray, k: int, rng: np.random.Generator):
    """Gumbel-top-k draw of k distinct indices; distribution identical to
    sequential softmax sampling without replacement (Plackett-Luce)."""
    return _top_k(logits + rng.gumbel(size=logits.shape), k)


@functools.cache
def _feature_columns(n_devices: int, width: int) -> np.ndarray:
    """Columns of device 0's gain, capacity and exchange count and of its
    entry in each encoded block, in a chained state ``width`` wide."""
    n_enc = (width - (3 * n_devices + 1)) // n_devices
    if n_enc < 0:
        raise ValueError("chained state narrower than the observation layout")
    j = np.arange(3 + n_enc)
    cols = j * n_devices + (j >= 3)   # the clock sits between obs and blocks
    cols.flags.writeable = False      # shared by every caller
    return cols


def _row_features(chain: np.ndarray, selection: np.ndarray,
                  n_devices: int) -> np.ndarray:
    """Per-row features of a weight-shared per-device head, one row per
    (sample, slot): the device's own observation features (gain, capacity,
    exchange count) and its own slice of every encoding appended so far.
    The head's input row is ``[chain[s] | features]``; ``neural`` takes the
    two parts apart (a factored input). Relies on the observation layout
    [gains | capacities | exchange counts | clock]."""
    m, k = selection.shape
    cols = selection[:, :, None] + _feature_columns(n_devices, chain.shape[1])
    return chain[np.arange(m)[:, None, None], cols].reshape(m * k, -1)


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


def _eval_rows(net: Mlp, inputs: np.ndarray, actions: np.ndarray,
               feats: np.ndarray, scratch=None, logp_only: bool = False):
    """A rows head on the factored input ``(inputs, feats)``, ``feats`` the
    (M*K, e) ``_row_features``; only the (M,) log-probs if ``logp_only``.
    With a ``scratch`` the returned activations are its work arrays (see
    ``neural``)."""
    m, k = actions.shape
    out, acts = forward(net, inputs, feats, scratch)            # (M*K, L)
    scratch = Scratch.of(out.dtype, scratch)
    lp = log_softmax(out, scratch)
    flat = actions.reshape(-1)
    ar = np.arange(m * k)
    logp = lp[ar, flat].reshape(m, k).sum(axis=1)
    if logp_only:
        return logp
    p = np.exp(lp)
    grad = -p
    grad[ar, flat] += 1.0
    ent_rows = -((p * lp) @ scratch.ones(out.shape[1]))
    entropy = ent_rows.reshape(m, k).sum(axis=1)
    grad_ent = -p * (lp + ent_rows[:, None])
    return BranchPass(logp, grad, entropy, grad_ent, acts, rows_per_sample=k)


def _eval_topk(net: Mlp, inputs: np.ndarray, actions: np.ndarray,
               scratch=None, logp_only: bool = False):
    """Plackett-Luce evaluation of the stored draws, in closed form; only
    the (M,) log-probs if ``logp_only``.

    Draw j picks from A_j, the unchosen logits plus a_j..a_{K-1}, with
    log-normaliser L_j (the log-sum-exp over A_j), log-probabilities
    lp_ij = z_i - L_j and entropy H_j = -sum_i p_ij lp_ij. Over the K draws,
    d logp / dz_i = [i chosen] - sum_j p_ij and
    d entropy / dz_i = -sum_j p_ij (lp_ij + H_j), summing over the draws
    with i in A_j. A chosen a_m is in A_j for j <= m: a (K, K) triangle per
    sample. An unchosen logit is in every A_j, and its lp_ij splits into
    u_i = z_i - top and rho_j = top - L_j, top the largest unchosen logit.
    Every exponent is <= 0, and probabilities only ever multiply these
    log-probabilities, never raw logits, so rounding does not grow with the
    logits' spread.

    The forward's output array becomes ``grad_entropy``, and with a
    ``scratch`` every other (M, N) or (M, K, K) array is its work array.
    """
    z, acts = forward(net, inputs, scratch=scratch)
    scratch = Scratch.of(z.dtype, scratch)
    m, n = z.shape
    k = actions.shape[1]
    rows = np.arange(m)[:, None]
    z -= z.max(axis=1, keepdims=True)
    chosen = z[rows, actions]                                        # (M, K)
    log_norm = np.logaddexp.accumulate(chosen[:, ::-1], axis=1)[:, ::-1]
    if k < n:
        u = z                              # z's values are not read again
        u[rows, actions] = -np.inf
        top = u.max(axis=1, keepdims=True)
        u -= top
        e = np.exp(u, out=scratch.take("topk_e", m, n))      # 0 where chosen
        mass = e.sum(axis=1, keepdims=True)
        log_norm = np.logaddexp(top + np.log(mass), log_norm)
    logp = (chosen - log_norm).sum(axis=1)
    if logp_only:
        return logp
    # lp and p of a_m at draw j; a_m is gone after draw m
    lp, tri = (scratch.take(name, m, k * k).reshape(m, k, k)
               for name in ("topk_lp", "topk_tri"))
    np.subtract(chosen[:, :, None], log_norm[:, None, :], out=lp)
    tri[...] = 0.0
    np.exp(lp, out=tri, where=np.tri(k, dtype=bool))
    tri_lp = np.multiply(tri, lp, out=lp)
    ones = scratch.ones(k)
    ent = -(ones @ tri_lp)                                           # H_j
    grad_logp = scratch.take("topk_grad", m, n)
    grad_ent = z          # k = n: every entry of both is set below
    if k < n:
        u[rows, actions] = 0.0                        # keeps e * u finite
        rho = top - log_norm                                         # (M, K)
        r = np.exp(rho)
        eu = np.multiply(e, u, out=grad_logp).sum(axis=1, keepdims=True)
        ent -= r * (eu + rho * mass)
        total = r.sum(axis=1, keepdims=True)
        np.multiply(e, -total, out=grad_logp)
        u *= -total
        u -= (r * (rho + ent)).sum(axis=1, keepdims=True)
        u *= e                                             # u is grad_ent
    p_chosen = tri @ ones
    grad_logp[rows, actions] = 1.0 - p_chosen
    grad_ent[rows, actions] = (-(tri_lp @ ones)
                               - (tri @ ent[:, :, None])[:, :, 0])
    return BranchPass(logp, grad_logp, ent.sum(axis=1), grad_ent, acts)


def _gather(rows: np.ndarray, idx, scratch, name="x") -> np.ndarray:
    """``rows[idx]``, written into the scratch's work array for ``name`` if
    there is one."""
    if scratch is None:
        return rows[idx]
    # mode "clip" writes straight into out, where the default "raise" goes
    # through a temporary; idx comes from a permutation, so nothing clips
    return np.take(rows, idx, axis=0, mode="clip",
                   out=scratch.take(name, len(idx), rows.shape[1]))


@functools.cache
def _sample_rows(m: int) -> np.ndarray:
    """(M, 1) sample indices: in a fancy index, they pair each sample with
    its own actions."""
    rows = np.arange(m)[:, None]
    rows.flags.writeable = False      # shared by every caller
    return rows


def _encode(spec: BranchSpec, action: np.ndarray, selection: np.ndarray,
            out: np.ndarray) -> None:
    """Write into ``out``, the (M, N) block of the chained state after a
    branch acts on M samples, a one-hot of the selected devices, or each
    selected device's share of the summed levels (level + 1) of a "rows"
    branch."""
    out[...] = 0.0
    rows = _sample_rows(len(action))
    if spec.kind == "topk":
        out[rows, action] = 1.0
    else:
        levels = action + 1.0
        out[rows, selection] = levels / np.add.reduce(levels, 1, keepdims=True)


# ---------------------------------------------------------------------------
# agents
# ---------------------------------------------------------------------------


class _CriticBundle:
    """Critic, its optimiser and shuffle stream."""

    def __init__(self, obs_dim, cfg: PpoConfig, seed: int, index: int):
        init_rng = stream(seed, 0, 100 + index)
        self.net = Mlp.init([obs_dim, *cfg.hidden, 1], init_rng)
        self.opt = AdamState(self.net.parameters(), lr=cfg.critic_lr)
        self.shuffle = stream(seed, 3, index)

    def minibatch_update(self, inputs, targets, scratch=None) -> float:
        pred, acts = forward(self.net, inputs, scratch=scratch)
        err = pred[:, 0] - targets
        loss = float((err ** 2).mean())
        upstream = (2.0 * err / len(err))[:, None]
        backward(self.net, upstream, acts, self.opt.grads, scratch)
        adam_step(self.opt, scratch)
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
        self.opt = AdamState([p for net in self.nets for p in net.parameters()],
                             lr=cfg.actor_lr)
        self.shuffle = stream(seed, 2, index)


class _PpoAgentBase:
    """The PPO learner of all three controllers.

    A chained agent has one actor unit over every branch, each head fed the
    chained state: the observation plus the encodings of the actions already
    taken (``_encode``); an unchained agent has one unit per branch, each
    head fed the base observation. Branch 0 is the device selection. Every
    unit's ratio is that of its own joint action. There is one critic, or
    one per unit when ``critic_per_unit`` is set.
    """

    chained = True
    critic_per_unit = False

    def __init__(self, obs_dim: int, branches: list[BranchSpec],
                 cfg: PpoConfig | None = None, seed: int = 0):
        self.branches = branches
        self.sample_rng = stream(seed, 1)
        self.n_devices = branches[0].n_options
        self._row = None
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
        # the activations of a unit's heads live until its backward pass, one
        # set per head; backward, Adam, other units and the critics run one
        # after another and share the first set
        self._scratch = [Scratch() for _ in range(max(map(len, groups)))]

    def act(self, obs: np.ndarray, greedy: bool = False) -> StepAction:
        """One step's branch actions, each a fresh int array. The chained
        state is one float32 row, made at the first call, that the agent
        keeps from call to call and a copy of the agent copies; every call
        writes the observation and each encoding it reads."""
        d, n = len(obs), self.n_devices
        row = self._row
        if row is None:
            row = self._row = np.empty(
                (1, d + (len(self.branches) - 1) * n), np.float32)
        row[0, :d] = obs
        actions = []
        for b, spec in enumerate(self.branches):
            if b and self.chained:
                at = d + (b - 1) * n
                _encode(self.branches[b - 1], actions[-1][None, :],
                        actions[0][None, :], row[:, at:at + n])
            chain = row[:, :d + b * n] if self.chained else row[:, :d]
            actions.append(self._branch_action(
                b, spec, chain, actions[0] if b else None, greedy))
        return StepAction(branch_actions=actions)

    def components(self):
        return ([(f"actor{i}", u) for i, u in enumerate(self.units)],
                [(f"critic{c}", b) for c, b in enumerate(self.critics)])

    def _input_dims(self) -> list[int]:
        """Input width of each head; a "rows" head also sees one column of
        each per-device block (see ``_row_features``)."""
        n = self.n_devices
        dims = []
        for b, spec in enumerate(self.branches):
            d = self.obs_dim + b * n if self.chained else self.obs_dim
            if spec.kind == "rows":
                d += len(_feature_columns(n, d))
            dims.append(d)
        return dims

    def make_buffer(self) -> TrajectoryBuffer:
        return TrajectoryBuffer(self.cfg.segment, self.obs_dim,
                                [s.slots for s in self.branches])

    def _branch_action(self, b, spec, net_in, selection, greedy):
        net = self.branch_nets[b]
        if spec.kind == "topk":
            logits = forward(net, net_in)[0][0]
            if greedy:
                return _top_k(logits, spec.slots)
            return _sample_topk(logits, spec.slots, self.sample_rng)
        # the one sample's _row_features
        feats = net_in[0, selection[:, None]
                       + _feature_columns(self.n_devices, net_in.shape[1])]
        mat = forward(net, net_in, feats)[0]  # (K, L)
        if not greedy:
            mat = mat + self.sample_rng.gumbel(size=mat.shape)
        return mat.argmax(axis=1)

    def _head_inputs(self, buffer: TrajectoryBuffer):
        """What an update derives once from the stored steps: ``inputs[b]``,
        head b's input (the chained states rebuilt through ``_encode``, each
        a column prefix of one array, or the observations for an unchained
        agent), and ``feats[b]``, a rows head's (M, K*e) ``_row_features``
        of every sample (None for the selection head). Unchained heads all
        see the observations, so they share one features array."""
        m, n = buffer.size, self.n_devices
        obs, selection = buffer.obs[:m], buffer.actions[0][:m]
        inputs = [obs] * len(self.branches)
        if self.chained:
            chain = np.empty((m, self.obs_dim + (len(self.branches) - 1) * n),
                             obs.dtype)
            chain[:, :self.obs_dim] = obs
            for b, spec in enumerate(self.branches[:-1]):
                at = self.obs_dim + b * n
                _encode(spec, buffer.actions[b][:m], selection,
                        chain[:, at:at + n])
            inputs = [chain[:, :self.obs_dim + b * n]
                      for b in range(len(self.branches))]
        feats, last = [], None
        for spec, x in zip(self.branches, inputs):
            if spec.kind == "rows" and x is not last:
                last, f = x, _row_features(x, selection, n).reshape(m, -1)
            feats.append(f if spec.kind == "rows" else None)
        return inputs, feats

    def _passes(self, unit: _ActorUnit, buffer: TrajectoryBuffer, derived,
                idx, scratch=None, logp_only: bool = False) -> list:
        """The unit's heads evaluated on the stored samples ``idx``, gathered
        from ``derived`` (see ``_head_inputs``): ``_eval_topk`` for a head
        without row features, ``_eval_rows`` for the others. Head j of the
        unit works in ``scratch[j]`` when given; ``logp_only`` runs only the
        log-prob part of each pass and returns the log-probs."""
        inputs, feats = derived
        out = []
        for b, net, slot in zip(unit.branch_ids, unit.nets,
                                scratch or [None] * len(unit.nets)):
            actions = buffer.actions[b][idx]
            x = _gather(inputs[b], idx, slot)
            if feats[b] is None:
                out.append(_eval_topk(net, x, actions, slot, logp_only))
            else:
                f = _gather(feats[b], idx, slot, "feats").reshape(
                    actions.size, -1)
                out.append(_eval_rows(net, x, actions, f, slot, logp_only))
        return out

    def evaluate_logps(self, buffer: TrajectoryBuffer, derived) -> np.ndarray:
        """(M, branches) log-probs of the stored actions under the current
        parameters, evaluated a minibatch at a time in the update's work
        arrays from ``derived`` (see ``_head_inputs``)."""
        m, size = buffer.size, self.cfg.minibatch
        logps = np.empty((m, len(self.branches)), np.float32)
        for unit in self.units:
            for start in range(0, m, size):
                idx = np.arange(start, min(start + size, m))
                logps[idx[:, None], unit.branch_ids] = np.stack(self._passes(
                    unit, buffer, derived, idx, self._scratch, True), axis=1)
        return logps

    def update(self, buffer: TrajectoryBuffer) -> dict:
        """Every unit's actor epochs against its critic's advantages, then
        every critic's epochs. Actors and critics share no state within an
        update, so this gives the same result as interleaving them. The
        behaviour log-probs are those of the parameters the update starts
        from, which collected the whole segment."""
        if buffer.size == 0:
            raise ValueError("cannot update from an empty batch")
        derived = self._head_inputs(buffer)
        behaviour = self.evaluate_logps(buffer, derived)
        returns = [self._advantages(buffer, critic) for critic in self.critics]
        advs = [self._normalized(adv) for adv, _ in returns]
        stats = {"policy_loss": [], "value_loss": [], "entropy": [],
                 "clip_frac": []}
        for i, unit in enumerate(self.units):
            adv = advs[i if self.critic_per_unit else 0]
            old = behaviour[:, unit.branch_ids].sum(axis=1)
            for _ in range(self.cfg.epochs):
                self._actor_epoch(unit, buffer, derived, adv, old, stats)
        for critic, (_, targets) in zip(self.critics, returns):
            for _ in range(self.cfg.epochs):
                self._critic_epoch(critic, buffer, targets, stats)
        return {k: (float(np.mean(v)) if v else 0.0) for k, v in stats.items()}

    def _advantages(self, buffer: TrajectoryBuffer, critic: _CriticBundle):
        m = buffer.size
        v = forward(critic.net, buffer.obs[:m])[0][:, 0]
        v_next = np.empty(m)
        v_next[:-1] = v[1:]
        v_next[-1] = (forward(critic.net, buffer.final_obs[None, :])[0][0, 0]
                      if buffer.final_obs is not None else 0.0)
        adv = gae(buffer.rewards[:m], v, v_next, buffer.dones[:m],
                  self.cfg.gamma, self.cfg.lam)
        return adv, adv + v

    def _normalized(self, adv: np.ndarray) -> np.ndarray:
        std = adv.std()
        if std < 1e-8:
            return adv  # degenerate batch: proceed unnormalised
        return (adv - adv.mean()) / std

    def _actor_epoch(self, unit, buffer, derived, adv, old, stats):
        """One clipped-surrogate epoch for one actor unit over shuffled
        minibatches. The ratio is that of the unit's joint action: the sum of
        its branches' log-probs, new against the behaviour log-probs
        ``old``."""
        cfg, m = self.cfg, buffer.size
        perm = unit.shuffle.permutation(m)
        for start in range(0, m, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            passes = self._passes(unit, buffer, derived, idx, self._scratch)
            a = adv[idx].astype(np.float32)   # no float64 operand below
            ratio = np.exp(sum(p.logp for p in passes) - old[idx])
            surr1 = ratio * a
            surr2 = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * a
            inside = np.abs(ratio - 1.0) <= cfg.clip_eps
            coef = np.where((surr1 <= surr2) | inside, surr1, 0.0) / len(idx)
            grads, at = unit.opt.grads, 0
            work = self._scratch[0]
            for net, p in zip(unit.nets, passes):
                row_coef = np.repeat(coef, p.rows_per_sample)
                upstream = (row_coef[:, None] * p.grad_logp
                            + cfg.entropy_coef * p.grad_entropy / len(idx))
                n_arrays = 2 * len(net.weights)
                backward(net, -upstream, p.activations,
                         grads[at:at + n_arrays], work)
                at += n_arrays
            adam_step(unit.opt, work)
            stats["clip_frac"].append(float((~inside).mean()))
            stats["policy_loss"].append(
                -float(np.minimum(surr1, surr2).mean()))
            stats["entropy"].append(float(np.mean([p.entropy.mean()
                                                   for p in passes])))

    def _critic_epoch(self, critic: _CriticBundle, buffer, targets, stats):
        cfg, m = self.cfg, buffer.size
        perm = critic.shuffle.permutation(m)
        obs = buffer.obs[:m]
        work = self._scratch[0]
        for start in range(0, m, cfg.minibatch):
            idx = perm[start:start + cfg.minibatch]
            loss = critic.minibatch_update(_gather(obs, idx, work),
                                           targets[idx], work)
            stats["value_loss"].append(loss)

    def rng_streams(self) -> dict:
        streams = {"sample": self.sample_rng}
        actors, critics = self.components()
        for name, part in actors + critics:
            streams[f"{name}/shuffle"] = part.shuffle
        return streams


class SabppoAgent(_PpoAgentBase):
    """SABPPO: one actor unit over the chained heads, so the ratio is that of
    the joint action, and one critic."""


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


class RandomPolicy:
    """Uniform over every branch's space; feasible by construction. Each
    step draws the branches' actions from the sample stream in branch
    order, and reads no observation. A selection ranks N uniforms ``u`` and
    keeps the K smallest: the draw ``_sample_topk`` makes of equal logits
    from the same stream positions (numpy's Gumbel key ``-log(-log(1 - u))``
    falls strictly in ``u``), unless ``gumbel`` redraws a ``u == 0.0``
    (2**-53 an entry) or breaks by index a tie of two keys that round equal
    from different ``u``."""

    def __init__(self, branches: list[BranchSpec], seed: int = 0):
        self.branches = branches
        self.sample_rng = stream(seed, 1)

    def act(self, obs: np.ndarray, greedy: bool = False) -> StepAction:
        return StepAction(branch_actions=[self._branch_action(spec)
                                          for spec in self.branches])

    def _branch_action(self, spec: BranchSpec) -> np.ndarray:
        if spec.kind == "topk":
            return _top_k(-self.sample_rng.random(spec.n_options), spec.slots)
        return self.sample_rng.integers(0, spec.n_options, size=spec.slots)

    def components(self):
        return [], []

    def rng_streams(self) -> dict:
        return {"sample": self.sample_rng}


class FixedFullModelPolicy(RandomPolicy):
    """Baseline for full-model federated runs: seeded uniform selection,
    equal resource levels, retention pinned to the top of the grid."""

    def _branch_action(self, spec: BranchSpec) -> np.ndarray:
        if spec.kind == "topk":
            return super()._branch_action(spec)
        level = spec.n_options - 1 if spec.name == "retention" else 0
        return np.full(spec.slots, level)
