"""Denoising-diffusion contract policy with twin critics.

The actor is a conditional denoiser: starting from Gaussian noise it applies
K reverse steps conditioned on the environment state, and the squashed output
is affinely mapped into the (b, f, R) action box.  Critics score state-action
pairs; training follows the usual off-policy actor-critic loop with a replay
buffer, double-Q targets, and soft target updates.  Greedy and random menu
baselines live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    pt_expected,
)
from .feasibility import cross_utility_tensor, own_utilities
from .nn import AdamState, Mlp, adam_step

__all__ = [
    "NoiseSchedule",
    "ActionBounds",
    "Scenario",
    "GdmHyperparams",
    "GdmAgent",
    "ReplayBuffer",
    "encode_state",
    "forward_diffuse",
    "generate",
    "reward_fn",
    "critic_update",
    "actor_gradient",
    "actor_update",
    "soft_update",
    "train",
    "baseline_random",
    "baseline_greedy",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise levels iota_k in (0,1) with derived cumulative products."""

    iota: np.ndarray

    def __post_init__(self):
        iota = np.asarray(self.iota, dtype=float)
        if iota.ndim != 1 or iota.size < 1:
            raise ValueError("iota must be a nonempty vector")
        if np.any(iota <= 0) or np.any(iota >= 1):
            raise ValueError("iota entries must lie in (0, 1)")
        object.__setattr__(self, "iota", iota)

    @classmethod
    def default(cls, k: int = 3, lo: float = 1e-4, hi: float = 2e-2) -> "NoiseSchedule":
        return cls(iota=np.linspace(lo, hi, k))

    @property
    def k(self) -> int:
        return self.iota.size

    @property
    def lam(self) -> np.ndarray:
        return 1.0 - self.iota

    @property
    def lam_hat(self) -> np.ndarray:
        return np.cumprod(self.lam)


@dataclass(frozen=True)
class ActionBounds:
    """Box the squashed action vector is mapped into, shared with the solver."""

    b_min: float = 0.0
    b_max: float = 10.0
    f_min: float = 0.0
    f_max: float = 3.0
    r_min: float = 0.0
    r_max: float = 50.0

    def lows(self, mn: int) -> np.ndarray:
        return np.concatenate(
            [np.full(mn, self.b_min), np.full(mn, self.f_min), np.full(mn, self.r_min)]
        )

    def highs(self, mn: int) -> np.ndarray:
        return np.concatenate(
            [np.full(mn, self.b_max), np.full(mn, self.f_max), np.full(mn, self.r_max)]
        )


@dataclass(frozen=True)
class Scenario:
    """One fully specified environment: types, channel, display, preferences."""

    grid: TypeGrid
    ch: ChannelParams
    hmd: HMDParams
    sens: SensitivityParams
    pt: PTParams
    n_sellers: int = 5


# normalization constants for the state encoding, fixed for reproducibility
_STATE_NORM = {"l": 10.0, "m": 4.0, "n": 4.0, "u_ref": 20.0, "theta": 200.0, "sigma": 200.0}


def encode_state(sc: Scenario) -> np.ndarray:
    """Flat state vector [L, M, N, U_ref, Q.., theta.., sigma..], normalized."""
    g = sc.grid
    return np.concatenate(
        [
            [
                sc.n_sellers / _STATE_NORM["l"],
                g.m / _STATE_NORM["m"],
                g.n / _STATE_NORM["n"],
                sc.pt.u_ref / _STATE_NORM["u_ref"],
            ],
            g.q.ravel(),
            g.theta / _STATE_NORM["theta"],
            g.sigma / _STATE_NORM["sigma"],
        ]
    )


def state_dim(m: int, n: int) -> int:
    return 4 + m * n + m + n


def action_dim(m: int, n: int) -> int:
    return 3 * m * n


def map_action(u: np.ndarray, bounds: ActionBounds, m: int, n: int) -> ContractMenu:
    """Affine map from [-1, 1]^{3MN} into the action box, reshaped to a menu."""
    u = np.asarray(u, dtype=float)
    mn = m * n
    lo = bounds.lows(mn)
    hi = bounds.highs(mn)
    vals = lo + (u + 1.0) * 0.5 * (hi - lo)
    return ContractMenu(
        b=vals[:mn].reshape(m, n),
        f=vals[mn : 2 * mn].reshape(m, n),
        r=vals[2 * mn :].reshape(m, n),
    )


def forward_diffuse(x0: np.ndarray, k: int, schedule: NoiseSchedule, noise: np.ndarray) -> np.ndarray:
    """Closed-form noising: x_k = sqrt(lam_hat_k) x0 + sqrt(1 - lam_hat_k) eps."""
    if not (1 <= k <= schedule.k):
        raise ValueError(f"step k={k} out of range 1..{schedule.k}")
    lh = schedule.lam_hat[k - 1]
    return np.sqrt(lh) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - lh) * np.asarray(noise)


def _denoise_coeffs(schedule: NoiseSchedule, k: int) -> tuple[float, float, float]:
    lam = schedule.lam[k - 1]
    lh = schedule.lam_hat[k - 1]
    iota = schedule.iota[k - 1]
    return 1.0 / np.sqrt(lam), iota / np.sqrt(lam * (1.0 - lh)), np.sqrt(iota)


def _actor_input(x: np.ndarray, s: np.ndarray, k: int, k_total: int) -> np.ndarray:
    """Batched denoiser input rows [x_k, state, one-hot(k)]."""
    onehot = np.zeros(k_total)
    onehot[k - 1] = 1.0
    return np.concatenate([x, s, np.broadcast_to(onehot, (x.shape[0], k_total))], axis=1)


@dataclass
class GdmHyperparams:
    gamma: float = 1.0
    tau: float = 0.005
    explore_noise: float = 0.01
    # final noise level; linearly annealed per episode when it differs
    explore_noise_final: float | None = None
    batch_size: int = 512
    varpi: float = 0.0
    # lower bound on the tanh derivative used in the actor update; a positive
    # value keeps escape pressure on saturated action dimensions
    tanh_grad_floor: float = 0.0
    actor_lr: float = 2e-7
    critic_lr: float = 2e-7
    buffer_capacity: int = 1_000_000
    hidden_width: int = 128
    hidden_layers: int = 3


class GdmAgent:
    """Actor/critic bundle realizing the diffusion contract policy."""

    def __init__(
        self,
        m: int,
        n: int,
        bounds: ActionBounds,
        schedule: NoiseSchedule | None = None,
        hp: GdmHyperparams | None = None,
        seed: int = 0,
    ):
        self.m = m
        self.n = n
        self.bounds = bounds
        self.schedule = schedule or NoiseSchedule.default()
        self.hp = hp or GdmHyperparams()
        rng = np.random.default_rng(seed)

        sd = state_dim(m, n)
        ad = action_dim(m, n)
        hidden = [self.hp.hidden_width] * self.hp.hidden_layers
        acts = ["relu"] * self.hp.hidden_layers + ["identity"]
        self.actor = Mlp([ad + sd + self.schedule.k] + hidden + [ad], acts, rng)
        self.critic1 = Mlp([sd + ad] + hidden + [1], acts, rng)
        self.critic2 = Mlp([sd + ad] + hidden + [1], acts, rng)
        self.target_actor = self.actor.clone()
        self.target_critic1 = self.critic1.clone()
        self.target_critic2 = self.critic2.clone()

        self.actor_opt = AdamState.for_net(self.actor)
        self.critic1_opt = AdamState.for_net(self.critic1)
        self.critic2_opt = AdamState.for_net(self.critic2)

    # -- action generation -------------------------------------------------

    def _denoise_chain(self, s_batch: np.ndarray, rng: np.random.Generator, actor: Mlp, record: bool):
        """Run the reverse chain on a batch; optionally keep tapes for backprop."""
        batch = s_batch.shape[0]
        ad = action_dim(self.m, self.n)
        x = rng.standard_normal((batch, ad))
        tapes = []
        for k in range(self.schedule.k, 0, -1):
            inv_sqrt_lam, eps_coeff, noise_coeff = _denoise_coeffs(self.schedule, k)
            eps, tape = actor.apply(_actor_input(x, s_batch, k, self.schedule.k))
            x_next = inv_sqrt_lam * x - eps_coeff * eps
            if k > 1:
                x_next = x_next + noise_coeff * rng.standard_normal((batch, ad))
            if record:
                tapes.append((k, tape, inv_sqrt_lam, eps_coeff))
            x = x_next
        u = np.tanh(x)
        return u, x, tapes

    def act_batch(self, s_batch: np.ndarray, rng: np.random.Generator, target: bool = False) -> np.ndarray:
        actor = self.target_actor if target else self.actor
        u, _, _ = self._denoise_chain(s_batch, rng, actor, record=False)
        return u


def generate(sc: Scenario, agent: GdmAgent, rng: np.random.Generator) -> ContractMenu:
    """Sample one contract menu from the trained (or untrained) policy."""
    s = encode_state(sc)
    u = agent.act_batch(s[None, :], rng)[0]
    return map_action(u, agent.bounds, agent.m, agent.n)


def _ic_slack(menu: ContractMenu, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Own-item utilities (M, N) and the IC slack matrix (MN, MN).

    Entry [(m, n), (p, q)] is V^{own}_{m,n} - V^{p,q}_{m,n}; the diagonal
    (m, n) == (p, q) is exactly 0.0, so summing the whole matrix gives the
    off-diagonal sum in the element order of the full tensor.
    """
    v = cross_utility_tensor(menu, grid)
    own = np.einsum("mnmn->mn", v)
    mn = grid.m * grid.n
    return own, own.reshape(mn, 1) - v.reshape(mn, mn)


def reward_fn(
    menu: ContractMenu,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
    penalty_weight: float = 1.0,
    violations_only: bool = False,
) -> float:
    """Constraint-shaped training reward.

    The prospect-theory expected utility plus the sum of own-item seller
    utilities plus the (weighted) sum of IC slack terms over all cross pairs.
    ``violations_only`` clips positive slack at zero so only violations are
    penalized; the literal sum is the default.
    """
    u_pt = pt_expected(menu, grid, ch, hmd, sens, pt)
    own, slack = _ic_slack(menu, grid)
    slack = slack[~np.eye(slack.shape[0], dtype=bool)]
    if violations_only:
        slack = np.minimum(slack, 0.0)
    return float(u_pt + own.sum() + penalty_weight * slack.sum())


def reward_components(menu, grid, ch, hmd, sens, pt) -> tuple[float, float, float]:
    """(u_pt, ic_slack_sum, ir_slack_min) diagnostics for the training log."""
    u_pt = pt_expected(menu, grid, ch, hmd, sens, pt)
    own, slack = _ic_slack(menu, grid)
    return u_pt, float(slack.sum()), float(own.min())


@dataclass
class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling."""

    capacity: int
    state_dim: int
    act_dim: int
    _idx: int = 0
    size: int = 0
    states: np.ndarray = field(init=False)
    actions: np.ndarray = field(init=False)
    rewards: np.ndarray = field(init=False)
    next_states: np.ndarray = field(init=False)
    dones: np.ndarray = field(init=False)

    def __post_init__(self):
        self.states = np.zeros((self.capacity, self.state_dim))
        self.actions = np.zeros((self.capacity, self.act_dim))
        self.rewards = np.zeros(self.capacity)
        self.next_states = np.zeros((self.capacity, self.state_dim))
        self.dones = np.zeros(self.capacity)

    def add(self, s, a, r, s_next, done) -> None:
        i = self._idx
        self.states[i] = s
        self.actions[i] = a
        self.rewards[i] = r
        self.next_states[i] = s_next
        self.dones[i] = float(done)
        self._idx = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        # with replacement so updates can start before the buffer fills
        idx = rng.integers(0, self.size, size=batch_size)
        return (
            self.states[idx],
            self.actions[idx],
            self.rewards[idx],
            self.next_states[idx],
            self.dones[idx],
        )


def critic_update(agent: GdmAgent, batch, rng: np.random.Generator) -> tuple[float, float]:
    """Double-Q regression toward r + gamma (1 - d) min(Q1', Q2')."""
    s, a, r, s_next, d = batch
    batch_size = s.shape[0]
    a_next = agent.act_batch(s_next, rng, target=True)
    sa_next = np.concatenate([s_next, a_next], axis=1)
    q1n, _ = agent.target_critic1.apply(sa_next)
    q2n, _ = agent.target_critic2.apply(sa_next)
    target = r + agent.hp.gamma * (1.0 - d) * np.minimum(q1n[:, 0], q2n[:, 0])

    sa = np.concatenate([s, a], axis=1)
    losses = []
    for critic, opt in (
        (agent.critic1, agent.critic1_opt),
        (agent.critic2, agent.critic2_opt),
    ):
        q, tape = critic.apply(sa)
        err = q[:, 0] - target
        losses.append(float(np.mean(err**2)))
        upstream = (2.0 * err / batch_size)[:, None]
        grad, _ = critic.grads(tape, upstream)
        adam_step(opt, critic.params, grad, agent.hp.critic_lr)
    return losses[0], losses[1]


def actor_gradient(agent: GdmAgent, s_batch: np.ndarray, rng: np.random.Generator):
    """Loss -mean Q1(s, policy(s)) and its gradient w.r.t. actor parameters.

    The gradient flows backward through the squash and every step of the
    reparameterized denoise chain; with ``varpi > 0`` an extra term
    discourages saturated actions (a crude stand-in for the intractable
    policy entropy).  Returns ``(loss, grad)`` with ``grad`` aligned with
    ``agent.actor.params`` and pointing in the descent direction of the
    loss.
    """
    s = s_batch
    batch_size = s.shape[0]
    u, x0, tapes = agent._denoise_chain(s, rng, agent.actor, record=True)

    sa = np.concatenate([s, u], axis=1)
    q, tape = agent.critic1.apply(sa)
    loss = -float(np.mean(q[:, 0]))

    upstream = np.full((batch_size, 1), 1.0 / batch_size)
    _, sa_grad = agent.critic1.grads(tape, upstream)
    du = sa_grad[:, s.shape[1] :]
    if agent.hp.varpi > 0:
        du = du - agent.hp.varpi * 2.0 * u / batch_size
    g = du * np.maximum(1.0 - u**2, agent.hp.tanh_grad_floor)  # through tanh

    ad = action_dim(agent.m, agent.n)
    total = np.zeros_like(agent.actor.params)
    # tapes were recorded k = K..1; backprop consumes them in reverse (k = 1..K)
    for k, tape, inv_sqrt_lam, eps_coeff in reversed(tapes):
        grad, in_grad = agent.actor.grads(tape, -eps_coeff * g)
        total += grad
        g = g * inv_sqrt_lam + in_grad[:, :ad]

    # total accumulates the ascent direction of Q; negate for the loss
    return loss, -total


def actor_update(agent: GdmAgent, batch, rng: np.random.Generator) -> float:
    """One Q-guided policy-gradient step on the actor (see actor_gradient)."""
    loss, grad = actor_gradient(agent, batch[0], rng)
    adam_step(agent.actor_opt, agent.actor.params, grad, agent.hp.actor_lr)
    return loss


def soft_update(agent: GdmAgent, tau: float | None = None) -> None:
    """target <- tau * online + (1 - tau) * target for every network pair."""
    t = agent.hp.tau if tau is None else tau
    for online, target in (
        (agent.actor, agent.target_actor),
        (agent.critic1, agent.target_critic1),
        (agent.critic2, agent.target_critic2),
    ):
        target.params *= 1.0 - t
        target.params += t * online.params


class ContractEnv:
    """Contextual one-shot contract environment.

    Each step proposes a menu for the current scenario; ``resample_each_step``
    draws a fresh scenario per step, otherwise the scenario is fixed.
    """

    def __init__(self, scenario_fn, bounds: ActionBounds, resample_each_step: bool = False,
                 penalty_weight: float = 1.0, violations_only: bool = False):
        self.scenario_fn = scenario_fn
        self.bounds = bounds
        self.resample_each_step = resample_each_step
        self.penalty_weight = penalty_weight
        self.violations_only = violations_only
        self._current: Scenario | None = None

    def reset(self, rng: np.random.Generator) -> Scenario:
        self._current = self.scenario_fn(rng)
        return self._current

    def step_scenario(self, rng: np.random.Generator) -> Scenario:
        if self._current is None or self.resample_each_step:
            self._current = self.scenario_fn(rng)
        return self._current

    def reward(self, menu: ContractMenu, sc: Scenario) -> float:
        return reward_fn(
            menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt,
            penalty_weight=self.penalty_weight,
            violations_only=self.violations_only,
        )


def train(
    agent: GdmAgent,
    env: ContractEnv,
    episodes: int,
    steps: int,
    seed: int,
) -> list[dict]:
    """Off-policy training loop; returns one log record per (episode, step).

    RNG streams are keyed by (seed, episode, step) so the run is reproducible
    regardless of any intra-step parallelism.
    """
    log: list[dict] = []
    if episodes <= 0:
        return log
    env.reset(np.random.default_rng((seed, 0)))
    noise_hi = agent.hp.explore_noise
    noise_lo = noise_hi if agent.hp.explore_noise_final is None else agent.hp.explore_noise_final
    buffer = ReplayBuffer(
        capacity=agent.hp.buffer_capacity,
        state_dim=state_dim(agent.m, agent.n),
        act_dim=action_dim(agent.m, agent.n),
    )
    for ep in range(episodes):
        for t in range(steps):
            rng = np.random.default_rng((seed, ep, t))
            sc = env.step_scenario(rng)
            s = encode_state(sc)
            frac = ep / (episodes - 1) if episodes > 1 else 1.0
            noise_scale = noise_hi + (noise_lo - noise_hi) * frac
            u = agent.act_batch(s[None, :], rng)[0]
            u = np.clip(u + noise_scale * rng.standard_normal(u.shape), -1.0, 1.0)
            menu = map_action(u, agent.bounds, agent.m, agent.n)
            r = env.reward(menu, sc)
            if not np.isfinite(r):
                raise FloatingPointError(f"non-finite reward at episode {ep} step {t}")
            sc_next = env.step_scenario(rng) if env.resample_each_step else sc
            s_next = encode_state(sc_next)
            done = t == steps - 1
            buffer.add(s, u, r, s_next, done)

            batch = buffer.sample(agent.hp.batch_size, rng)
            c1, c2 = critic_update(agent, batch, rng)
            a_loss = actor_update(agent, batch, rng)
            soft_update(agent)
            for net in (agent.actor, agent.critic1, agent.critic2):
                if not np.all(np.isfinite(net.params)):
                    raise FloatingPointError(f"non-finite parameters at episode {ep} step {t}")

            u_pt, ic_sum, ir_min = reward_components(
                menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt
            )
            log.append(
                {
                    "epoch": ep,
                    "step": t,
                    "reward": r,
                    "u_pt": u_pt,
                    "ic_slack_sum": ic_sum,
                    "ir_slack_min": ir_min,
                    "critic_loss": 0.5 * (c1 + c2),
                    "actor_loss": a_loss,
                }
            )
    return log


def baseline_random(sc: Scenario, bounds: ActionBounds, rng: np.random.Generator) -> tuple[ContractMenu, float]:
    """Uniform draw in the action box."""
    ad = action_dim(sc.grid.m, sc.grid.n)
    u = rng.uniform(-1.0, 1.0, size=ad)
    menu = map_action(u, bounds, sc.grid.m, sc.grid.n)
    r = reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    return menu, r


def baseline_greedy(sc: Scenario, bounds: ActionBounds, points: int = 33) -> tuple[ContractMenu, float]:
    """Per-type independent maximization, IR-priced, IC ignored.

    For each type pair picks (b, f) maximizing alpha*immersion - beta*latency
    - R with R set to that type's participation bound.
    """
    from .econ import immersion, latency

    g = sc.grid
    b_levels = np.linspace(bounds.b_min, bounds.b_max, points)
    f_levels = np.linspace(bounds.f_min, bounds.f_max, points)
    b_out = np.zeros((g.m, g.n))
    f_out = np.zeros((g.m, g.n))
    r_out = np.zeros((g.m, g.n))
    for m in range(g.m):
        for n in range(g.n):
            ch_mn = _cell_channel(sc.ch, m, n)
            hmd_mn = _cell_hmd(sc.hmd, m, n)
            bb, ff = np.meshgrid(b_levels, f_levels, indexing="ij")
            imm = np.asarray(immersion(bb, ff, ch_mn, hmd_mn))
            lat = np.asarray(latency(bb, ch_mn))
            r_ir = bb**2 / g.theta[m] + ff**2 / g.sigma[n]
            score = sc.sens.alpha_imm * imm - sc.sens.beta_lat * lat - r_ir
            i, j = np.unravel_index(np.argmax(score), score.shape)
            b_out[m, n] = bb[i, j]
            f_out[m, n] = ff[i, j]
            r_out[m, n] = min(r_ir[i, j], bounds.r_max)
    menu = ContractMenu(b=b_out, f=f_out, r=r_out)
    return menu, reward_fn(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt)


def _cell_channel(ch: ChannelParams, m: int, n: int) -> ChannelParams:
    def pick(x):
        x = np.asarray(x, dtype=float)
        return float(x[m, n]) if x.ndim == 2 else float(x)

    return ChannelParams(p=pick(ch.p), g2=pick(ch.g2), n0=ch.n0, c=ch.c, d=pick(ch.d))


def _cell_hmd(hmd: HMDParams, m: int, n: int) -> HMDParams:
    def pick(x):
        x = np.asarray(x, dtype=float)
        return float(x[m, n]) if x.ndim == 2 else float(x)

    return HMDParams(
        resolution=hmd.resolution,
        framerate=hmd.framerate,
        s_eff=pick(hmd.s_eff),
        t_th=hmd.t_th,
        zeta1=hmd.zeta1,
        zeta2=hmd.zeta2,
        mu=pick(hmd.mu),
    )
