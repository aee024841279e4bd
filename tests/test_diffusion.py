"""Diffusion policy: schedule identities, chain mechanics, updates, training."""

import numpy as np
import pytest

from edgecontract import diffusion as df
from edgecontract.econ import ContractMenu
from edgecontract.harness import run_training
from edgecontract.nn import AdamState, Mlp, adam_step
from edgecontract.scenario import ExperimentConfig

from conftest import (
    cross_utility,
    make_grid,
    mlp_reference_apply,
    mlp_reference_grads,
    neutral_pt,
    simple_channel,
    simple_hmd,
    simple_sens,
)


def _scenario(rng, m=2, n=2):
    return df.Scenario(
        grid=make_grid(rng, m, n),
        ch=simple_channel(),
        hmd=simple_hmd(),
        sens=simple_sens(),
        pt=neutral_pt(),
    )


def _small_agent(seed=0, **hp_overrides):
    kwargs = dict(hidden_width=16, hidden_layers=2, batch_size=8,
                  actor_lr=1e-3, critic_lr=1e-3)
    kwargs.update(hp_overrides)
    return df.GdmAgent(2, 2, df.ActionBounds(), hp=df.GdmHyperparams(**kwargs), seed=seed)


# -- noise schedule ---------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        df.NoiseSchedule(iota=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        df.NoiseSchedule(iota=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        df.NoiseSchedule(iota=np.zeros((2, 2)))


def test_schedule_cumulative_product():
    sched = df.NoiseSchedule(iota=np.array([0.1, 0.2, 0.3]))
    assert np.allclose(sched.lam, [0.9, 0.8, 0.7])
    assert np.allclose(sched.lam_hat, [0.9, 0.72, 0.504])


def test_schedule_variance_composition_identity():
    # noising one step from the (k-1)-marginal must reproduce the k-marginal:
    # 1 - lam_hat_k = lam_k (1 - lam_hat_{k-1}) + iota_k
    sched = df.NoiseSchedule.default(k=5)
    lam, lh, iota = sched.lam, sched.lam_hat, sched.iota
    for k in range(1, 5):
        assert 1.0 - lh[k] == pytest.approx(lam[k] * (1.0 - lh[k - 1]) + iota[k], rel=1e-12)


# -- forward / reverse steps ------------------------------------------------

def test_forward_diffuse_zero_noise_scales_by_sqrt_lam_hat(rng):
    sched = df.NoiseSchedule.default(k=3)
    x0 = rng.standard_normal(6)
    for k in (1, 2, 3):
        out = df.forward_diffuse(x0, k, sched, np.zeros(6))
        assert np.allclose(out, np.sqrt(sched.lam_hat[k - 1]) * x0)


def test_forward_diffuse_step_range_checked(rng):
    sched = df.NoiseSchedule.default(k=3)
    with pytest.raises(ValueError):
        df.forward_diffuse(np.zeros(2), 0, sched, np.zeros(2))
    with pytest.raises(ValueError):
        df.forward_diffuse(np.zeros(2), 4, sched, np.zeros(2))


def test_forward_diffuse_marginal_moments(rng):
    # x_k | x0 ~ N(sqrt(lh) x0, (1 - lh) I)
    sched = df.NoiseSchedule.default(k=3)
    x0 = np.full(1, 2.0)
    draws = np.array([df.forward_diffuse(x0, 2, sched, rng.standard_normal(1))[0]
                      for _ in range(20000)])
    lh = sched.lam_hat[1]
    se_mean = np.sqrt(1.0 - lh) / np.sqrt(draws.size)
    assert abs(draws.mean() - np.sqrt(lh) * 2.0) < 4 * se_mean
    assert abs(draws.var() - (1.0 - lh)) < 5e-2 * (1.0 - lh) + 4 * (1.0 - lh) * np.sqrt(2.0 / draws.size)


def test_denoise_chain_zero_actor_rescales_input(rng):
    # eps-prediction identically zero: x_{k-1} = x_k / sqrt(lam_k) + sqrt(iota_k) z_k
    # for k = K..2, and the final step k = 1 adds no noise
    agent = _small_agent()
    sched = agent.schedule
    sd, ad = df.state_dim(2, 2), df.action_dim(2, 2)
    actor = Mlp([ad + sd + sched.k, ad], ["identity"])  # zero weights
    s = rng.standard_normal((4, sd))
    u, x0, _ = agent._denoise_chain(s, np.random.default_rng(3), actor, record=False)

    draws = np.random.default_rng(3)
    x = draws.standard_normal((4, ad))
    for k in range(sched.k, 1, -1):
        x = x / np.sqrt(sched.lam[k - 1]) + np.sqrt(sched.iota[k - 1]) * draws.standard_normal((4, ad))
    x = x / np.sqrt(sched.lam[0])
    assert np.allclose(x0, x)
    assert np.allclose(u, np.tanh(x))


# -- action mapping and state encoding --------------------------------------

def test_map_action_endpoints():
    bounds = df.ActionBounds()
    lo = df.map_action(-np.ones(12), bounds, 2, 2)
    hi = df.map_action(np.ones(12), bounds, 2, 2)
    assert np.all(lo.b == bounds.b_min) and np.all(hi.b == bounds.b_max)
    assert np.all(lo.f == bounds.f_min) and np.all(hi.f == bounds.f_max)
    assert np.all(lo.r == bounds.r_min) and np.all(hi.r == bounds.r_max)
    mid = df.map_action(np.zeros(12), bounds, 2, 2)
    assert np.all(mid.b == 5.0) and np.all(mid.f == 1.5) and np.all(mid.r == 25.0)


def test_encode_state_layout(rng):
    sc = _scenario(rng)
    s = df.encode_state(sc)
    assert s.shape == (df.state_dim(2, 2),)
    assert s[0] == sc.n_sellers / 10.0
    assert s[1] == pytest.approx(0.5) and s[2] == pytest.approx(0.5)
    assert s[3] == pytest.approx(sc.pt.u_ref / 20.0)
    assert np.allclose(s[4:8], sc.grid.q.ravel())
    assert np.allclose(s[8:10], sc.grid.theta / 200.0)
    assert np.allclose(s[10:12], sc.grid.sigma / 200.0)


def test_generate_stays_in_action_box(rng):
    agent = _small_agent()
    for _ in range(10):
        sc = _scenario(rng)
        menu = df.generate(sc, agent, rng)
        assert np.all(menu.b >= 0) and np.all(menu.b <= 10)
        assert np.all(menu.f >= 0) and np.all(menu.f <= 3)
        assert np.all(menu.r >= 0) and np.all(menu.r <= 50)


def test_act_batch_deterministic_given_rng_state():
    agent = _small_agent()
    s = np.linspace(0.0, 1.0, df.state_dim(2, 2))[None, :]
    u1 = agent.act_batch(s, np.random.default_rng(7))
    u2 = agent.act_batch(s, np.random.default_rng(7))
    assert np.array_equal(u1, u2)


# -- training reward --------------------------------------------------------

def test_reward_fn_matches_quadruple_loop(rng):
    for _ in range(10):
        sc = _scenario(rng)
        menu = ContractMenu(
            b=rng.uniform(0, 10, (2, 2)),
            f=rng.uniform(0, 3, (2, 2)),
            r=rng.uniform(0, 50, (2, 2)),
        )
        g = sc.grid
        from edgecontract.econ import pt_expected

        expect = pt_expected(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt)
        for m in range(2):
            for n in range(2):
                own = cross_utility(menu, g, m, n, m, n)
                expect += own
                for p in range(2):
                    for q in range(2):
                        if (p, q) == (m, n):
                            continue
                        expect += 2.0 * (own - cross_utility(menu, g, m, n, p, q))
        got = df.reward_fn(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt, penalty_weight=2.0)
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_reward_fn_identical_items_have_zero_slack(rng):
    sc = _scenario(rng)
    menu = ContractMenu(b=np.full((2, 2), 4.0), f=np.full((2, 2), 1.0), r=np.full((2, 2), 10.0))
    base = df.reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, penalty_weight=0.0)
    full = df.reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, penalty_weight=5.0)
    assert full == pytest.approx(base, rel=1e-12)


def test_reward_fn_violations_only_never_exceeds_literal(rng):
    for _ in range(10):
        sc = _scenario(rng)
        menu = ContractMenu(
            b=rng.uniform(0, 10, (2, 2)),
            f=rng.uniform(0, 3, (2, 2)),
            r=rng.uniform(0, 50, (2, 2)),
        )
        lit = df.reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
        vio = df.reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, violations_only=True)
        assert vio <= lit + 1e-12


def test_reward_components_match_separate_evaluations(rng):
    from edgecontract.econ import pt_expected
    from edgecontract.feasibility import ic_slack

    for violations_only in (False, True):
        sc = _scenario(rng)
        menu = ContractMenu(
            b=rng.uniform(0, 10, (2, 2)),
            f=rng.uniform(0, 3, (2, 2)),
            r=rng.uniform(0, 50, (2, 2)),
        )
        g = sc.grid
        reward, u_pt, ic_sum, ir_min = df.reward_components(
            menu, g, sc.ch, sc.hmd, sc.sens, sc.pt, 2.0, violations_only)
        own, slack = ic_slack(menu, g)
        assert reward == df.reward_fn(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt, 2.0, violations_only)
        assert u_pt == pt_expected(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt)
        assert ic_sum == float(slack.sum()) and ir_min == float(own.min())


# -- replay buffer ----------------------------------------------------------

def _transition(i):
    """Transition ``i`` for a buffer of state_dim 2 and act_dim 3, every
    field distinct from every other transition's."""
    return [i, i + 0.1], [i + 0.2, i + 0.3, i + 0.4], i + 0.5, [i + 0.6, i + 0.7], i % 2 == 1


def test_replay_buffer_fifo_overwrite():
    buf = df.ReplayBuffer(capacity=3, state_dim=2, act_dim=3)
    for i in range(5):
        buf.add(*_transition(i))
    assert buf.size == 3 and buf.added == 5
    # oldest two (0, 1) were overwritten by 3 and 4, each in its FIFO slot:
    # one row [s, a, r, s', done] per transition
    expect = [np.concatenate([s, a, [r], sn, [d]])
              for s, a, r, sn, d in map(_transition, (3, 4, 2))]
    assert np.array_equal(buf.rows, np.array(expect))


def test_replay_buffer_sample_returns_whole_transitions():
    buf = df.ReplayBuffer(capacity=4, state_dim=2, act_dim=3)
    for i in range(7):
        buf.add(*_transition(i))
    s, a, r, sn, d = buf.sample(50, np.random.default_rng(0))
    # the same uniform index draw as one integers call over the filled rows
    idx = np.random.default_rng(0).integers(0, 4, size=50)
    assert set(idx.tolist()) == {0, 1, 2, 3}
    for k, row in enumerate(idx):
        i = int(s[k, 0])
        assert i in (3, 4, 5, 6) and (i % 4) == row
        ts, ta, tr, tsn, td = _transition(i)
        assert s[k].tolist() == ts and a[k].tolist() == ta and r[k] == tr
        assert sn[k].tolist() == tsn and d[k] == float(td)


def test_replay_buffer_sample_shapes(rng):
    buf = df.ReplayBuffer(capacity=10, state_dim=2, act_dim=3)
    for i in range(4):
        buf.add(np.zeros(2), np.zeros(3), 0.0, np.zeros(2), i == 3)
    s, a, r, sn, d = buf.sample(6, rng)
    assert s.shape == (6, 2) and a.shape == (6, 3) and r.shape == (6,)
    assert sn.shape == (6, 2) and d.shape == (6,)


# -- updates ----------------------------------------------------------------

def _random_batch(rng, agent, batch=8):
    sd = df.state_dim(agent.m, agent.n)
    ad = df.action_dim(agent.m, agent.n)
    return (
        rng.standard_normal((batch, sd)),
        np.clip(rng.standard_normal((batch, ad)), -1, 1),
        rng.standard_normal(batch),
        rng.standard_normal((batch, sd)),
        (rng.uniform(size=batch) < 0.5).astype(float),
    )


def test_critic_update_reduces_loss_on_frozen_batch(rng):
    agent = _small_agent(seed=1, gamma=0.0)
    batch = _random_batch(rng, agent)
    first = None
    last = None
    for i in range(50):
        c1, c2 = df.critic_update(agent, batch, np.random.default_rng(0))
        if first is None:
            first = c1 + c2
        last = c1 + c2
    assert last < first


def test_critic_update_gamma_zero_targets_are_rewards(rng):
    # with gamma=0 and a perfect critic the loss is exactly zero; verify the
    # implied target by recomputing the regression loss by hand
    agent = _small_agent(seed=2, gamma=0.0)
    batch = _random_batch(rng, agent)
    s, a, r, _, _ = batch
    sa = np.concatenate([s, a], axis=1)
    q_before, _ = agent.critic1.apply(sa)
    expect_loss = float(np.mean((q_before[:, 0] - r) ** 2))
    c1, _ = df.critic_update(agent, batch, np.random.default_rng(0))
    assert c1 == pytest.approx(expect_loss, rel=1e-9)


def test_actor_update_zero_critic_leaves_actor_unchanged(rng):
    agent = _small_agent(seed=3, varpi=0.0)
    agent.critic1.params[...] = 0.0
    before = agent.actor.params.copy()
    df.actor_update(agent, _random_batch(rng, agent), np.random.default_rng(0))
    assert np.array_equal(agent.actor.params, before)


def test_actor_update_zero_lr_leaves_actor_unchanged(rng):
    agent = _small_agent(seed=4, actor_lr=0.0)
    before = agent.actor.params.copy()
    df.actor_update(agent, _random_batch(rng, agent), np.random.default_rng(0))
    assert np.array_equal(agent.actor.params, before)


def test_actor_update_improves_q_on_frozen_batch(rng):
    agent = _small_agent(seed=5)
    batch = _random_batch(rng, agent)

    def mean_q():
        u = agent.act_batch(batch[0], np.random.default_rng(9))
        q, _ = agent.critic1.apply(np.concatenate([batch[0], u], axis=1))
        return float(np.mean(q[:, 0]))

    before = mean_q()
    for _ in range(25):
        df.actor_update(agent, batch, np.random.default_rng(9))
    assert mean_q() > before


def test_soft_update_endpoints_and_contraction():
    agent = _small_agent(seed=6)
    online = agent.actor.params.copy()
    # perturb the target so the pairs differ
    agent.target_actor.params += 1.0
    gap0 = agent.target_actor.params - online

    agent.hp.tau = 0.0
    df.soft_update(agent)
    assert np.allclose(agent.target_actor.params, online + gap0)

    agent.hp.tau = 0.5
    df.soft_update(agent)
    assert np.allclose(agent.target_actor.params, online + 0.5 * gap0)

    agent.hp.tau = 1.0
    df.soft_update(agent)
    assert np.allclose(agent.target_actor.params, online)


# -- training loop and baselines --------------------------------------------

def test_train_zero_episodes_returns_empty_log_and_first_draw():
    agent = _small_agent(seed=7, episodes=0, steps=3)
    log, sc = df.train(agent, _scenario, seed=0)
    assert log == []
    # the first draw uses stream (seed, 0); its type grid is the drawn part
    first = _scenario(np.random.default_rng((0, 0)))
    for name in ("theta", "sigma", "q"):
        np.testing.assert_array_equal(getattr(sc.grid, name), getattr(first.grid, name))


def test_train_fixed_seed_reproducible():
    logs = []
    for _ in range(2):
        agent = _small_agent(seed=8, episodes=3, steps=2)
        logs.append(df.train(agent, _scenario, seed=11)[0])
    assert logs[0] == logs[1]
    assert len(logs[0]) == 6
    assert {rec["epoch"] for rec in logs[0]} == {0, 1, 2}
    for rec in logs[0]:
        assert set(rec) == {
            "epoch", "step", "reward", "u_pt", "ic_slack_sum",
            "ir_slack_min", "critic_loss", "actor_loss",
        }


@pytest.mark.parametrize("resample", [False, True])
def test_train_draws_and_returns_scenarios(resample):
    # one draw up front, plus the step's own and the next state's scenario
    # per step when resampling; the returned scenario is the last one drawn
    drawn = []

    def scenario_fn(rng):
        drawn.append(_scenario(rng))
        return drawn[-1]

    agent = _small_agent(seed=9, episodes=3, steps=2, resample_each_step=resample)
    log, last = df.train(agent, scenario_fn, seed=4)
    assert len(log) == 6
    assert len(drawn) == (1 + 2 * 3 * 2 if resample else 1)
    assert last is drawn[-1]


def test_baselines_stay_in_box(rng):
    sc = _scenario(rng)
    bounds = df.ActionBounds()
    for menu, _ in (df.baseline_random(sc, bounds, rng), df.baseline_greedy(sc, bounds)):
        assert np.all(menu.b >= 0) and np.all(menu.b <= bounds.b_max)
        assert np.all(menu.f >= 0) and np.all(menu.f <= bounds.f_max)
        assert np.all(menu.r >= 0) and np.all(menu.r <= bounds.r_max)


def test_baselines_score_with_the_shaping_they_are_given(rng):
    sc = _scenario(rng)
    bounds = df.ActionBounds()
    draw = np.random.default_rng(7)
    for menu, reward in (df.baseline_random(sc, bounds, draw, 0.5, True),
                         df.baseline_greedy(sc, bounds, 0.5, True)):
        assert reward == df.reward_fn(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, 0.5, True)


def test_baseline_greedy_deterministic(rng):
    sc = _scenario(rng)
    m1, r1 = df.baseline_greedy(sc, df.ActionBounds())
    m2, r2 = df.baseline_greedy(sc, df.ActionBounds())
    assert np.array_equal(m1.b, m2.b) and np.array_equal(m1.f, m2.f) and r1 == r2


def _per_cell_greedy(sc, bounds, points=33):
    """The greedy baseline one type pair at a time, on scalar per-cell
    channel and HMD parameters; the reference for the broadcast version."""
    from edgecontract.econ import ChannelParams, HMDParams, immersion, latency

    def pick(x, m, n):
        x = np.asarray(x, dtype=float)
        return float(x[m, n]) if x.ndim == 2 else float(x)

    g = sc.grid
    b_levels = np.linspace(bounds.b_min, bounds.b_max, points)
    f_levels = np.linspace(bounds.f_min, bounds.f_max, points)
    b_out, f_out, r_out = np.zeros((g.m, g.n)), np.zeros((g.m, g.n)), np.zeros((g.m, g.n))
    for m in range(g.m):
        for n in range(g.n):
            ch = ChannelParams(p=pick(sc.ch.p, m, n), g2=pick(sc.ch.g2, m, n),
                               n0=sc.ch.n0, c=sc.ch.c, d=pick(sc.ch.d, m, n))
            hmd = HMDParams(resolution=sc.hmd.resolution, framerate=sc.hmd.framerate,
                            s_eff=pick(sc.hmd.s_eff, m, n), t_th=sc.hmd.t_th,
                            zeta1=sc.hmd.zeta1, zeta2=sc.hmd.zeta2, mu=pick(sc.hmd.mu, m, n))
            bb, ff = np.meshgrid(b_levels, f_levels, indexing="ij")
            imm = np.asarray(immersion(bb, ff, ch, hmd))
            lat = np.asarray(latency(bb, ch))
            r_ir = bb**2 / g.theta[m] + ff**2 / g.sigma[n]
            score = sc.sens.alpha_imm * imm - sc.sens.beta_lat * lat - r_ir
            i, j = np.unravel_index(np.argmax(score), score.shape)
            b_out[m, n], f_out[m, n] = bb[i, j], ff[i, j]
            r_out[m, n] = min(r_ir[i, j], bounds.r_max)
    menu = ContractMenu(b=b_out, f=f_out, r=r_out)
    return menu, df.reward_fn(menu, g, sc.ch, sc.hmd, sc.sens, sc.pt)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)], ids=lambda s: "%dx%d" % s)
def test_baseline_greedy_equals_per_cell_loop(rng, shape):
    from edgecontract.scenario import ExperimentConfig, sample_scenario

    bounds = df.ActionBounds()
    scenarios = [_scenario(rng, *shape)]
    for _ in range(10):
        scenarios.append(df.Scenario(
            grid=make_grid(rng, *shape),
            ch=simple_channel(d=rng.uniform(10.0, 80.0, shape)),
            hmd=simple_hmd(s_eff=rng.uniform(1.5, 3.0, shape), mu=rng.uniform(0.2, 1.0, shape)),
            sens=simple_sens(),
            pt=neutral_pt(),
        ))
    if shape == (2, 2):
        cfg = ExperimentConfig()
        scenarios += [sample_scenario(cfg, np.random.default_rng((3, i))) for i in range(20)]
    for sc in scenarios:
        menu, reward = df.baseline_greedy(sc, bounds)
        ref_menu, ref_reward = _per_cell_greedy(sc, bounds)
        assert reward == ref_reward
        for field in ("b", "f", "r"):
            assert np.array_equal(getattr(menu, field), getattr(ref_menu, field)), field


# -- reused buffers against the allocating reference ------------------------

def _reference_chain(agent, s, rng, actor):
    """The allocating reverse chain: a concatenated input per step."""
    sched, k_total = agent.schedule, agent.schedule.k
    batch, ad = s.shape[0], df.action_dim(agent.m, agent.n)
    x = rng.standard_normal((batch, ad))
    records = []
    for k in range(k_total, 0, -1):
        lam, lh, iota = sched.lam[k - 1], sched.lam_hat[k - 1], sched.iota[k - 1]
        inv_sqrt_lam, eps_coeff = 1.0 / np.sqrt(lam), iota / np.sqrt(lam * (1.0 - lh))
        onehot = np.zeros(k_total)
        onehot[k - 1] = 1.0
        inp = np.concatenate([x, s, np.broadcast_to(onehot, (batch, k_total))], axis=1)
        eps, record = mlp_reference_apply(actor, inp)
        x_next = inv_sqrt_lam * x - eps_coeff * eps
        if k > 1:
            x_next = x_next + np.sqrt(iota) * rng.standard_normal((batch, ad))
        records.append((record, inv_sqrt_lam, eps_coeff))
        x = x_next
    return np.tanh(x), x, records


def _reference_actor_gradient(agent, s, rng):
    batch, ad = s.shape[0], df.action_dim(agent.m, agent.n)
    u, _, records = _reference_chain(agent, s, rng, agent.actor)
    q, record = mlp_reference_apply(agent.critic1, np.concatenate([s, u], axis=1))
    _, sa_grad = mlp_reference_grads(agent.critic1, record, np.full((batch, 1), 1.0 / batch))
    du = sa_grad[:, s.shape[1]:]
    if agent.hp.varpi > 0:
        du = du - agent.hp.varpi * 2.0 * u / batch
    g = du * np.maximum(1.0 - u**2, agent.hp.tanh_grad_floor)
    total = np.zeros_like(agent.actor.params)
    for record, inv_sqrt_lam, eps_coeff in reversed(records):
        grad, in_grad = mlp_reference_grads(agent.actor, record, -eps_coeff * g)
        total += grad
        g = g * inv_sqrt_lam + in_grad[:, :ad]
    return -float(np.mean(q[:, 0])), -total


def test_denoise_chain_matches_allocating_reference(rng):
    agent = _small_agent(seed=9)
    for batch in (8, 1, 8):
        s = rng.standard_normal((batch, df.state_dim(2, 2)))
        for record in (False, True):
            u, x, _ = agent._denoise_chain(s, np.random.default_rng(batch), agent.actor, record)
            u_ref, x_ref, _ = _reference_chain(agent, s, np.random.default_rng(batch), agent.actor)
            assert np.array_equal(u, u_ref) and np.array_equal(x, x_ref)


def test_denoise_chain_state_survives_a_later_chain(rng):
    agent = _small_agent(seed=9)
    s1, s2 = rng.standard_normal((2, 8, df.state_dim(2, 2)))
    u, x, _ = agent._denoise_chain(s1, np.random.default_rng(1), agent.actor, record=True)
    kept = x.copy()
    agent._denoise_chain(s2, np.random.default_rng(2), agent.actor, record=True)
    assert np.array_equal(x, kept) and np.array_equal(u, np.tanh(kept))


def test_actor_gradient_matches_allocating_reference(rng):
    # the reference adds the varpi term only when varpi > 0
    for varpi in (0.0, 0.2):
        agent = _small_agent(seed=10, varpi=varpi, tanh_grad_floor=0.1)
        for i in range(3):
            s = rng.standard_normal((8, df.state_dim(2, 2)))
            loss, grad = df.actor_gradient(agent, s, np.random.default_rng(i))
            loss_ref, grad_ref = _reference_actor_gradient(agent, s, np.random.default_rng(i))
            assert loss == loss_ref and np.array_equal(grad, grad_ref)
            df.actor_update(agent, (s,), np.random.default_rng(i))


def test_critic_update_equals_two_independent_critics(rng):
    # the stacked update must move each critic exactly as the per-critic loop did
    agent = _small_agent(seed=11, gamma=0.9)
    critics = [agent.critics.member(i).clone() for i in range(2)]
    targets = [agent.target_critics.member(i).clone() for i in range(2)]
    opts = [AdamState.for_net(c) for c in critics]
    for i in range(3):
        batch = _random_batch(rng, agent)
        s, a, r, s_next, d = batch
        losses = df.critic_update(agent, batch, np.random.default_rng(i))

        a_next, _, _ = _reference_chain(agent, s_next, np.random.default_rng(i), agent.target_actor)
        sa_next = np.concatenate([s_next, a_next], axis=1)
        q1n, q2n = (mlp_reference_apply(t, sa_next)[0] for t in targets)
        target = r + agent.hp.gamma * (1.0 - d) * np.minimum(q1n[:, 0], q2n[:, 0])
        sa = np.concatenate([s, a], axis=1)
        for j, (critic, opt) in enumerate(zip(critics, opts)):
            q, record = mlp_reference_apply(critic, sa)
            err = q[:, 0] - target
            assert losses[j] == float(np.mean(err**2))
            grad, _ = mlp_reference_grads(critic, record, (2.0 * err / s.shape[0])[:, None])
            adam_step(opt, critic.params, grad, agent.hp.critic_lr)
            assert np.array_equal(agent.critics.params[j], critic.params)

        df.soft_update(agent)
        for critic, target_net in zip(critics, targets):
            target_net.params *= 1.0 - agent.hp.tau
            target_net.params += agent.hp.tau * critic.params
        for j, target_net in enumerate(targets):
            assert np.array_equal(agent.target_critics.params[j], target_net.params)


def test_run_training_twice_in_one_process_gives_identical_logs():
    cfg = ExperimentConfig()
    cfg.seed = 3
    t = cfg.training
    t.episodes, t.steps, t.batch_size, t.hidden_width = 20, 3, 32, 16
    first, _, _ = run_training(cfg)
    second, _, _ = run_training(cfg)
    assert len(first.metrics) == 60 and first.metrics == second.metrics
    for field in ("b", "f", "r"):
        assert np.array_equal(getattr(first.menu, field), getattr(second.menu, field))
