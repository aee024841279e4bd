"""Denoising-diffusion contract policy with twin critics.

The actor is a conditional denoiser: starting from Gaussian noise it applies
K reverse steps conditioned on the environment state, and the squashed output
is affinely mapped into the (b, f, R) action box.  Critics score state-action
pairs; training follows the usual off-policy actor-critic loop with a replay
buffer, double-Q targets, and soft target updates.  :class:`GdmHyperparams`
holds every setting of that loop and is the ``[training]`` config section;
:func:`train` draws its scenarios from a caller-supplied sampler.  Greedy and
random menu baselines live here as well.
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
    level_tables,
    pt_expected,
)
from .feasibility import ic_slack
from .nn import AdamState, Mlp, adam_step
from .solver import SearchSpec

# levels per resource axis the greedy baseline searches
GREEDY_POINTS = 33
# fields of each per-step record train returns, in the order the logs write them
LOG_COLUMNS = ["epoch", "step", "reward", "u_pt", "ic_slack_sum", "ir_slack_min",
               "critic_loss", "actor_loss"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise levels iota_k in (0,1) with derived cumulative products."""

    iota: np.ndarray

    def __post_init__(self):
        iota = np.asarray(self.iota, dtype=float)
        if iota.ndim != 1 or iota.size < 1:
            raise ValueError("iota must be a nonempty vector")
        if not np.all((iota > 0) & (iota < 1)):
            raise ValueError("iota entries must lie in (0, 1)")
        object.__setattr__(self, "iota", iota)

    @classmethod
    def default(cls, k: int) -> "NoiseSchedule":
        """The ``[training]`` default schedule with ``k`` steps: what
        :meth:`GdmHyperparams.schedule` builds at ``diffusion_steps = k``."""
        return GdmHyperparams(diffusion_steps=k).schedule()

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
    """Box the squashed action vector is mapped into.

    Its b and f ranges default to the ``[search]`` box, the one
    :class:`solver.SearchSpec` searches.  Rewards run from the constant
    ``r_min = 0`` to ``r_max``, whose default here is also ``[training]
    r_max``'s.
    """

    b_min: float = SearchSpec.b_range[0]
    b_max: float = SearchSpec.b_range[1]
    f_min: float = SearchSpec.f_range[0]
    f_max: float = SearchSpec.f_range[1]
    r_max: float = 50.0
    r_min = 0.0  # a class constant, not a field


@dataclass(frozen=True)
class Scenario:
    """One fully specified environment: types, channel, display, preferences.

    ``n_sellers``' default is also ``[scenario] n_sellers``'."""

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
    """Affine map from [-1, 1]^{3MN} into the action box, reshaped to a menu:
    the b, f and R blocks of ``u``, in that order, each onto its own range."""
    u = np.asarray(u, dtype=float).reshape(3, m, n)
    lo = np.array([bounds.b_min, bounds.f_min, bounds.r_min])[:, None, None]
    hi = np.array([bounds.b_max, bounds.f_max, bounds.r_max])[:, None, None]
    b, f, r = lo + (u + 1.0) * 0.5 * (hi - lo)
    return ContractMenu(b=b, f=f, r=r)


def forward_diffuse(x0: np.ndarray, k: int, schedule: NoiseSchedule, noise: np.ndarray) -> np.ndarray:
    """Closed-form noising: x_k = sqrt(lam_hat_k) x0 + sqrt(1 - lam_hat_k) eps."""
    if not (1 <= k <= schedule.k):
        raise ValueError(f"step k={k} out of range 1..{schedule.k}")
    lh = schedule.lam_hat[k - 1]
    return np.sqrt(lh) * np.asarray(x0, dtype=float) + np.sqrt(1.0 - lh) * np.asarray(noise)


def _denoise_coeffs(schedule: NoiseSchedule) -> list[tuple[float, float, float]]:
    """Per reverse step k = 1..K (index k - 1): the input scale 1/sqrt(lam_k),
    the noise-prediction scale iota_k / sqrt(lam_k (1 - lam_hat_k)) and the
    injected noise scale sqrt(iota_k)."""
    return [
        (1.0 / np.sqrt(lam), iota / np.sqrt(lam * (1.0 - lh)), np.sqrt(iota))
        for lam, lh, iota in zip(schedule.lam, schedule.lam_hat, schedule.iota)
    ]


@dataclass
class GdmHyperparams:
    """Settings of the GDM training loop (Du et al., arXiv:2308.05384).

    This is the ``[training]`` config section: every field is a key of the
    same name, and the defaults here are the section's.  ``r_max`` caps the
    reward axis of the action box, which :class:`ActionBounds` carries;
    :class:`GdmAgent` and :func:`train` read the rest.  The shaping pair
    ``penalty_weight`` and ``violations_only`` is also the default of
    :func:`reward_fn` and of the baselines.
    """

    episodes: int = 200
    steps: int = 3
    gamma: float = 1.0
    tau: float = 0.005
    explore_noise: float = 0.01
    # final noise level, linearly annealed per episode; < 0 means no annealing
    explore_noise_final: float = -1.0
    batch_size: int = 512
    actor_lr: float = 2e-7
    critic_lr: float = 2e-7
    buffer_capacity: int = 1_000_000
    hidden_width: int = 128
    hidden_layers: int = 3
    diffusion_steps: int = 3
    iota_lo: float = 1e-4
    iota_hi: float = 2e-2
    varpi: float = 0.0
    # lower bound on the tanh derivative used in the actor update; a positive
    # value keeps escape pressure on saturated action dimensions
    tanh_grad_floor: float = 0.0
    resample_each_step: bool = False
    penalty_weight: float = 1.0
    violations_only: bool = False
    r_max: float = ActionBounds.r_max

    def schedule(self) -> NoiseSchedule:
        """``diffusion_steps`` noise levels evenly spaced from ``iota_lo`` to
        ``iota_hi``."""
        if self.diffusion_steps < 1:
            raise ValueError("diffusion_steps must be >= 1")
        return NoiseSchedule(iota=np.linspace(self.iota_lo, self.iota_hi, self.diffusion_steps))

    def io_widths(self, m: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """``(in, out)`` widths of the actor and of each critic on an m x n
        lattice.  The actor maps a chain state, the state and a one-hot step
        to a noise prediction, ``ad + sd + K -> ad``; a critic maps a state
        and an action to a value, ``sd + ad -> 1``."""
        sd, ad = state_dim(m, n), action_dim(m, n)
        return (ad + sd + self.diffusion_steps, ad), (sd + ad, 1)

    def parameter_bytes(self, m: int, n: int) -> int:
        """Bytes of the parameter storage of :class:`GdmAgent` on an m x n
        lattice: the actor and the twin-critic stack, each with its target
        and its two Adam moments, four float64 copies in all.  The input and
        output widths are :meth:`io_widths`'; the hidden layers are counted
        in closed form, so no size allocates."""
        w, layers = self.hidden_width, self.hidden_layers

        def count(d_in: int, d_out: int) -> int:
            if layers == 0:
                return (d_in + 1) * d_out
            return (d_in + 1) * w + (layers - 1) * (w + 1) * w + (w + 1) * d_out

        actor, critic = self.io_widths(m, n)
        return 4 * 8 * (count(*actor) + 2 * count(*critic))


# the most GdmHyperparams.parameter_bytes a config may ask for (1 GiB); the
# default [training] config needs about 3.5 MB
MAX_PARAMETER_BYTES = 2**30


class GdmAgent:
    """Actor/critic bundle realizing the diffusion contract policy.

    ``hp`` sets the network widths and, through :meth:`GdmHyperparams.schedule`,
    the reverse chain's noise schedule.  The twin critics are one stacked
    network (``critics``, and ``target_critics`` for their targets) on a
    leading axis of 2; ``critic1`` is a plain-network view of member 0, the
    critic the actor update climbs.  A target shares its source's scratch
    buffers and ``critic1`` reads ``[0]`` views of the stack's, so one
    scratch set serves each network shape (see :mod:`edgecontract.nn`);
    the tapes are each network's own.  Besides those workspaces the agent
    reuses nothing: everything a training step computes is a fresh array.
    """

    def __init__(self, m: int, n: int, bounds: ActionBounds, hp: GdmHyperparams, seed: int):
        self.m = m
        self.n = n
        self.bounds = bounds
        self.hp = hp
        self.schedule = self.hp.schedule()
        rng = np.random.default_rng(seed)

        (actor_in, actor_out), (critic_in, critic_out) = self.hp.io_widths(m, n)
        hidden = [self.hp.hidden_width] * self.hp.hidden_layers
        acts = ["relu"] * self.hp.hidden_layers + ["identity"]
        self.actor = Mlp([actor_in, *hidden, actor_out], acts, rng)
        self.critics = Mlp([critic_in, *hidden, critic_out], acts, rng, stack=2)
        self.critic1 = self.critics.member(0)
        self.target_actor = self.actor.clone()
        self.target_critics = self.critics.clone()

        self.actor_opt = AdamState.for_net(self.actor)
        self.critics_opt = AdamState.for_net(self.critics)
        self._coeffs = _denoise_coeffs(self.schedule)

    # -- action generation -------------------------------------------------

    def _denoise_chain(self, s_batch: np.ndarray, rng: np.random.Generator, actor: Mlp, record: bool):
        """Run the reverse chain on a batch; optionally keep tapes for backprop.

        Returns ``(u, x, tapes)``: the last chain state ``x`` and ``u =
        tanh(x)`` are fresh arrays; with ``record`` the tapes, one per step
        k = K..1, are the actor's tapes of slot k and stay valid until its
        next ``apply`` at this batch size in that slot.
        """
        batch = s_batch.shape[0]
        k_total = self.schedule.k
        one_hots = np.repeat(np.eye(k_total)[:, None, :], batch, axis=1)  # one_hots[k - 1]: one-hot(k) rows
        x = rng.standard_normal((batch, action_dim(self.m, self.n)))
        tapes = []
        for k in range(k_total, 0, -1):
            inp = np.concatenate([x, s_batch, one_hots[k - 1]], axis=1)
            inv_sqrt_lam, eps_coeff, noise_coeff = self._coeffs[k - 1]
            eps, tape = actor.apply(inp, slot=k if record else None)
            # x_{k-1} = inv_sqrt_lam x_k - eps_coeff eps (+ noise_coeff z)
            x = x * inv_sqrt_lam - eps * eps_coeff
            if k > 1:
                x = x + rng.standard_normal(x.shape) * noise_coeff
            if record:
                tapes.append((k, tape, inv_sqrt_lam, eps_coeff))
        return np.tanh(x), x, tapes

    def act_batch(self, s_batch: np.ndarray, rng: np.random.Generator, target: bool = False) -> np.ndarray:
        actor = self.target_actor if target else self.actor
        u, _, _ = self._denoise_chain(s_batch, rng, actor, record=False)
        return u


def generate(sc: Scenario, agent: GdmAgent, rng: np.random.Generator) -> ContractMenu:
    """Sample one contract menu from the trained (or untrained) policy."""
    s = encode_state(sc)
    u = agent.act_batch(s[None, :], rng)[0]
    return map_action(u, agent.bounds, agent.m, agent.n)


def reward_fn(
    menu: ContractMenu,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
    penalty_weight: float = GdmHyperparams.penalty_weight,
    violations_only: bool = GdmHyperparams.violations_only,
) -> float:
    """Constraint-shaped training reward.

    The prospect-theory expected utility plus the sum of own-item seller
    utilities plus the (weighted) sum of IC slack terms over all cross pairs.
    ``violations_only`` clips positive slack at zero so only violations are
    penalized; the literal sum is the default.
    """
    return reward_components(menu, grid, ch, hmd, sens, pt, penalty_weight, violations_only)[0]


def reward_components(
    menu: ContractMenu,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
    penalty_weight: float,
    violations_only: bool,
) -> tuple[float, float, float, float]:
    """``(reward, u_pt, ic_slack_sum, ir_slack_min)`` from one utility and
    one slack evaluation: the :func:`reward_fn` value and the training
    log's diagnostics."""
    u_pt = pt_expected(menu, grid, ch, hmd, sens, pt)
    own, slack = ic_slack(menu, grid)
    cross = slack.reshape(own.size, own.size)[~np.eye(own.size, dtype=bool)]
    if violations_only:
        cross = np.minimum(cross, 0.0)
    reward = float(u_pt + own.sum() + penalty_weight * cross.sum())
    # the diagonal slack is exactly 0.0; summing the whole tensor keeps the
    # element order of the full (M, N, M, N) sum
    return reward, u_pt, float(slack.sum()), float(own.min())


@dataclass
class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform sampling.

    Each transition is one row of ``rows``: ``[s, a, r, s', done]``;
    ``added`` counts the transitions stored so far."""

    capacity: int
    state_dim: int
    act_dim: int
    added: int = field(init=False, default=0)
    rows: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rows = np.zeros((self.capacity, 2 * self.state_dim + self.act_dim + 2))

    @property
    def size(self) -> int:
        return min(self.added, self.capacity)

    def add(self, s, a, r, s_next, done) -> None:
        self.rows[self.added % self.capacity] = np.concatenate([s, a, [r], s_next, [done]])
        self.added += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        # with replacement so updates can start before the buffer fills
        idx = rng.integers(0, self.size, size=batch_size)
        rows = self.rows[idx]
        sd, sa = self.state_dim, self.state_dim + self.act_dim
        return rows[:, :sd], rows[:, sd:sa], rows[:, sa], rows[:, sa + 1 : -1], rows[:, -1]


def critic_update(agent: GdmAgent, batch, rng: np.random.Generator) -> tuple[float, float]:
    """Double-Q regression toward r + gamma (1 - d) min(Q1', Q2').

    Both critics regress on one stacked forward and backward pass and take
    one Adam step on the stacked parameters.
    """
    s, a, r, s_next, d = batch
    batch_size = s.shape[0]
    sa_next = np.concatenate([s_next, agent.act_batch(s_next, rng, target=True)], axis=1)
    q_next, _ = agent.target_critics.apply(sa_next, slot=None)
    target = (1.0 - d) * agent.hp.gamma * np.minimum(q_next[0, :, 0], q_next[1, :, 0]) + r

    q, tape = agent.critics.apply(np.concatenate([s, a], axis=1))
    err = q[:, :, 0] - target
    sq = np.square(err)
    losses = float(np.mean(sq[0])), float(np.mean(sq[1]))
    upstream = err * 2.0 / batch_size
    grad, _ = agent.critics.grads(tape, upstream[:, :, None], wrt="params")
    adam_step(agent.critics_opt, agent.critics.params, grad, agent.hp.critic_lr)
    return losses


def actor_gradient(agent: GdmAgent, s_batch: np.ndarray, rng: np.random.Generator):
    """Loss -mean Q1(s, policy(s)) and its gradient w.r.t. actor parameters.

    The gradient flows backward through the squash and every step of the
    reparameterized denoise chain; an extra term of weight ``varpi``
    discourages saturated actions (a crude stand-in for the intractable
    policy entropy).  Returns ``(loss, grad)`` with ``grad`` aligned with
    ``agent.actor.params`` and pointing in the descent direction of the
    loss.
    """
    s = s_batch
    batch_size, sd = s.shape
    ad = action_dim(agent.m, agent.n)
    u, _, tapes = agent._denoise_chain(s, rng, agent.actor, record=True)

    q, tape = agent.critic1.apply(np.concatenate([s, u], axis=1))
    loss = -float(np.mean(q[:, 0]))

    _, sa_grad = agent.critic1.grads(tape, np.full((batch_size, 1), 1.0 / batch_size), wrt="input")
    du = sa_grad[:, sd:] - u * (agent.hp.varpi * 2.0) / batch_size
    g = du * np.maximum(1.0 - np.square(u), agent.hp.tanh_grad_floor)  # through tanh

    total = np.zeros_like(agent.actor.params)
    # tapes were recorded k = K..1; backprop consumes them in reverse (k = 1..K)
    for k, tape, inv_sqrt_lam, eps_coeff in reversed(tapes):
        last = k == agent.schedule.k
        step_grad, in_grad = agent.actor.grads(tape, g * -eps_coeff, wrt="params" if last else "both")
        total += step_grad
        if not last:
            g = g * inv_sqrt_lam + in_grad[:, :ad]

    # total accumulates the ascent direction of Q; negate for the loss
    return loss, -total


def actor_update(agent: GdmAgent, batch, rng: np.random.Generator) -> float:
    """One Q-guided policy-gradient step on the actor (see actor_gradient)."""
    loss, grad = actor_gradient(agent, batch[0], rng)
    adam_step(agent.actor_opt, agent.actor.params, grad, agent.hp.actor_lr)
    return loss


def soft_update(agent: GdmAgent) -> None:
    """target <- tau * online + (1 - tau) * target for the actor and the
    critic stack, with ``tau`` from ``agent.hp``."""
    tau = agent.hp.tau
    for online, target in ((agent.actor, agent.target_actor), (agent.critics, agent.target_critics)):
        target.params *= 1.0 - tau
        target.params += online.params * tau


def train(agent: GdmAgent, scenario_fn, seed: int) -> tuple[list[dict], Scenario]:
    """Off-policy training loop for ``agent.hp.episodes`` x ``agent.hp.steps``
    steps; returns one log record per (episode, step) and the last scenario
    drawn.

    ``scenario_fn(rng)`` draws a scenario.  One draw is made up front; with
    ``hp.resample_each_step`` every step also draws its own scenario and the
    next state's, otherwise every step reuses the first.  Each step's menu
    is scored by :func:`reward_components` with ``hp.penalty_weight`` and
    ``hp.violations_only``.  RNG streams are keyed by (seed, episode, step)
    so the run is reproducible regardless of any intra-step parallelism.
    """
    hp = agent.hp
    log: list[dict] = []
    sc = scenario_fn(np.random.default_rng((seed, 0)))
    noise_hi = hp.explore_noise
    noise_lo = noise_hi if hp.explore_noise_final < 0 else hp.explore_noise_final
    buffer = ReplayBuffer(
        # a run never stores more transitions than it makes
        capacity=min(hp.buffer_capacity, hp.episodes * hp.steps),
        state_dim=state_dim(agent.m, agent.n),
        act_dim=action_dim(agent.m, agent.n),
    )
    s = s_next = encode_state(sc)
    for ep in range(hp.episodes):
        for t in range(hp.steps):
            rng = np.random.default_rng((seed, ep, t))
            if hp.resample_each_step:
                sc = scenario_fn(rng)
                s = encode_state(sc)
            frac = ep / (hp.episodes - 1) if hp.episodes > 1 else 1.0
            noise_scale = noise_hi + (noise_lo - noise_hi) * frac
            u = agent.act_batch(s[None, :], rng)[0]
            u = np.clip(u + noise_scale * rng.standard_normal(u.shape), -1.0, 1.0)
            menu = map_action(u, agent.bounds, agent.m, agent.n)
            r, u_pt, ic_sum, ir_min = reward_components(
                menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, hp.penalty_weight, hp.violations_only
            )
            if not np.isfinite(r):
                raise FloatingPointError(f"non-finite reward at episode {ep} step {t}")
            if hp.resample_each_step:
                sc = scenario_fn(rng)
                s_next = encode_state(sc)
            done = t == hp.steps - 1
            buffer.add(s, u, r, s_next, done)

            batch = buffer.sample(hp.batch_size, rng)
            c1, c2 = critic_update(agent, batch, rng)
            a_loss = actor_update(agent, batch, rng)
            soft_update(agent)
            for net in (agent.actor, agent.critics):
                if not np.all(np.isfinite(net.params)):
                    raise FloatingPointError(f"non-finite parameters at episode {ep} step {t}")
            record = (ep, t, r, u_pt, ic_sum, ir_min, 0.5 * (c1 + c2), a_loss)
            log.append(dict(zip(LOG_COLUMNS, record)))
    return log, sc


def baseline_random(sc: Scenario, bounds: ActionBounds, rng: np.random.Generator,
                    penalty_weight: float = GdmHyperparams.penalty_weight,
                    violations_only: bool = GdmHyperparams.violations_only) -> tuple[ContractMenu, float]:
    """Uniform draw in the action box, with its :func:`reward_fn` under the
    given shaping."""
    ad = action_dim(sc.grid.m, sc.grid.n)
    u = rng.uniform(-1.0, 1.0, size=ad)
    menu = map_action(u, bounds, sc.grid.m, sc.grid.n)
    return menu, reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, penalty_weight, violations_only)


def baseline_greedy(sc: Scenario, bounds: ActionBounds,
                    penalty_weight: float = GdmHyperparams.penalty_weight,
                    violations_only: bool = GdmHyperparams.violations_only) -> tuple[ContractMenu, float]:
    """Per-type independent maximization, IR-priced, IC ignored, with its
    :func:`reward_fn` under the given shaping.

    For each type pair picks, among :data:`GREEDY_POINTS` levels per axis,
    the (b, f) maximizing :func:`econ.buyer_value` - R with R set to that
    type's participation bound :func:`econ.seller_cost`, both read from
    :func:`econ.level_tables`; the first best level pair in b-major order
    wins a tie.
    """
    g = sc.grid
    b_levels = np.linspace(bounds.b_min, bounds.b_max, GREEDY_POINTS)
    f_levels = np.linspace(bounds.f_min, bounds.f_max, GREEDY_POINTS)
    value, ir = level_tables(b_levels, f_levels, g, sc.ch, sc.hmd, sc.sens)
    # every level pair on axis 0, b-major, against every type pair
    k = np.argmax((value - ir).reshape(-1, g.m, g.n), axis=0)  # (M, N) level-pair index
    b, f = divmod(k, GREEDY_POINTS)
    r = ir[b, f, np.arange(g.m)[:, None], np.arange(g.n)]
    menu = ContractMenu(b=b_levels[b], f=f_levels[f], r=np.minimum(r, bounds.r_max))
    return menu, reward_fn(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt, penalty_weight, violations_only)
