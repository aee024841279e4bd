"""Utility-math unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecontract.econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    TypeGrid,
    buyer_value,
    db_to_linear,
    dbm_to_watts,
    downlink_rate,
    eut_expected,
    immersion,
    latency,
    level_tables,
    prob_weight,
    pt_expected,
    pt_score,
    pt_value,
    pt_weights,
    seller_cost,
)
from edgecontract.feasibility import cross_utility_tensor, ic_slack

from conftest import make_grid, neutral_pt, simple_channel, simple_hmd, simple_sens


def _one_item(b, f, r, theta=100.0, sigma=100.0):
    """A 1 x 1 menu holding one contract item, and its one-type grid."""
    menu = ContractMenu(b=[[b]], f=[[f]], r=[[r]])
    return menu, TypeGrid(theta=[theta], sigma=[sigma], q=[[1.0]])


def av_type_utility(b, f, r, ch, hmd, sens) -> float:
    """Scalar reference: buyer utility alpha*immersion - beta*latency - R of one item."""
    return sens.alpha_imm * immersion(b, f, ch, hmd) - sens.beta_lat * latency(b, ch) - r


# -- domain type validation -------------------------------------------------

def test_type_grid_requires_strictly_increasing_types():
    q = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        TypeGrid(theta=[100.0, 100.0], sigma=[10.0, 20.0], q=q)
    with pytest.raises(ValueError):
        TypeGrid(theta=[10.0, 20.0], sigma=[30.0, 25.0], q=q)
    with pytest.raises(ValueError):
        TypeGrid(theta=[-1.0, 20.0], sigma=[10.0, 20.0], q=q)


def test_type_grid_requires_probability_mass():
    with pytest.raises(ValueError):
        TypeGrid(theta=[10.0, 20.0], sigma=[10.0, 20.0], q=np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        TypeGrid(theta=[10.0, 20.0], sigma=[10.0, 20.0], q=-np.full((2, 2), 0.25))


def test_contract_menu_shape_checks():
    with pytest.raises(ValueError):
        ContractMenu(b=np.zeros((2, 2)), f=np.zeros((2, 3)), r=np.zeros((2, 2)))
    menu = ContractMenu(b=np.zeros((2, 2)), f=np.zeros((2, 2)), r=np.zeros((2, 2)))
    grid = TypeGrid(theta=[10.0, 20.0, 30.0], sigma=[10.0, 20.0], q=np.full((3, 2), 1 / 6))
    with pytest.raises(ValueError):
        menu.check_dims(grid)


def test_hmd_params_validation():
    with pytest.raises(ValueError):
        HMDParams(resolution=1.0, framerate=1.0, s_eff=1.0, t_th=1.0, zeta1=0.7, zeta2=0.5)
    with pytest.raises(ValueError):
        HMDParams(resolution=1.0, framerate=1.0, s_eff=1.0, t_th=-1.0)
    with pytest.raises(ValueError, match="mu must be > 0"):
        HMDParams(resolution=1.0, framerate=1.0, s_eff=1.0, t_th=1.0, mu=0.0)
    with pytest.raises(ValueError, match="s_eff must be > 0"):
        HMDParams(resolution=1.0, framerate=1.0, s_eff=np.array([1.0, -3.0]), t_th=1.0)
    with pytest.raises(ValueError, match="resolution must be > 0"):
        HMDParams(resolution=0.0, framerate=1.0, s_eff=1.0, t_th=1.0)
    with pytest.raises(ValueError, match="framerate must be > 0"):
        HMDParams(resolution=1.0, framerate=np.nan, s_eff=1.0, t_th=1.0)


def test_channel_params_require_positive_finite_power_gain_noise():
    ok = dict(p=1.0, g2=np.array([1e-3, 2e-3]), n0=1e-9, c=0.02, d=10.0)
    ChannelParams(**ok)
    for name, bad in (("p", 0.0), ("g2", np.array([1e-3, np.inf])), ("n0", np.inf),
                      ("n0", np.nan)):
        with pytest.raises(ValueError, match="p, g2 and n0 must be positive and finite"):
            ChannelParams(**{**ok, name: bad})


def test_pt_params_validation():
    with pytest.raises(ValueError):
        PTParams(delta_plus=0.0)
    with pytest.raises(ValueError):
        PTParams(delta_minus=1.5)
    with pytest.raises(ValueError):
        PTParams(kappa=-0.1)
    with pytest.raises(ValueError):
        PTParams(weight_coeff=0.0)


# -- seller utility ---------------------------------------------------------

def test_rsu_utility_hand_computation():
    # 10 - 400/80 - 900/120 = -2.5
    menu, grid = _one_item(b=20.0, f=30.0, r=10.0, theta=80.0, sigma=120.0)
    assert ic_slack(menu, grid)[0][0, 0] == pytest.approx(-2.5, abs=1e-12)


@given(
    b=st.floats(0.0, 10.0),
    f=st.floats(0.0, 3.0),
    r=st.floats(0.0, 50.0),
    theta=st.floats(10.0, 200.0),
    sigma=st.floats(10.0, 200.0),
)
def test_rsu_utility_matches_formula(b, f, r, theta, sigma):
    menu, grid = _one_item(b, f, r, theta, sigma)
    expect = r - b**2 / theta - f**2 / sigma
    assert ic_slack(menu, grid)[0][0, 0] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_seller_cost_is_the_float_formula_exactly(rng):
    # per cell and in the (M, N, M, N) cross layout [m, n, p, q] that
    # feasibility.cross_utility_tensor prices
    grid = make_grid(rng, 2, 3)
    b = rng.uniform(0.0, 10.0, (2, 3))
    f = rng.uniform(0.0, 3.0, (2, 3))
    own = seller_cost(b, f, grid.theta[:, None], grid.sigma)
    cross = seller_cost(b, f, grid.theta[:, None, None, None], grid.sigma[:, None, None])
    assert own.shape == (2, 3) and cross.shape == (2, 3, 2, 3)
    for m, n, p, q in np.ndindex(2, 3, 2, 3):
        bp, fp = float(b[p, q]), float(f[p, q])
        expect = bp**2 / float(grid.theta[m]) + fp**2 / float(grid.sigma[n])
        assert cross[m, n, p, q] == expect
        if (m, n) == (p, q):
            assert own[m, n] == expect
    menu = ContractMenu(b=b, f=f, r=np.zeros((2, 3)))
    assert np.array_equal(cross_utility_tensor(menu, grid), -cross)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)], ids=lambda s: "%dx%d" % s)
def test_level_tables_equal_per_cell_scalar_calls(rng, shape):
    # per-type-pair channel and display values, each cell priced on its own
    # scalars; the levels include b = 0, where the rate's limit is taken
    grid = make_grid(rng, *shape)
    ch = simple_channel(d=rng.uniform(10.0, 80.0, shape))
    hmd = simple_hmd(s_eff=rng.uniform(1.5, 3.0, shape), mu=rng.uniform(0.2, 1.0, shape))
    sens = simple_sens()
    b_levels, f_levels = np.linspace(0.0, 10.0, 4), np.linspace(0.5, 3.0, 3)
    value, ir = level_tables(b_levels, f_levels, grid, ch, hmd, sens)
    assert value.shape == ir.shape == (4, 3, *shape)
    for i, j, m, n in np.ndindex(value.shape):
        cell_ch = simple_channel(d=float(ch.d[m, n]))
        cell_hmd = simple_hmd(s_eff=float(hmd.s_eff[m, n]), mu=float(hmd.mu[m, n]))
        b, f = float(b_levels[i]), float(f_levels[j])
        assert value[i, j, m, n] == buyer_value(b, f, cell_ch, cell_hmd, sens)
        assert ir[i, j, m, n] == seller_cost(b, f, float(grid.theta[m]), float(grid.sigma[n]))


# -- channel and rendering --------------------------------------------------

def test_downlink_rate_zero_bandwidth_limit():
    ch = simple_channel()
    assert downlink_rate(0.0, ch) == 0.0
    arr = downlink_rate(np.array([0.0, 1.0]), ch)
    assert arr[0] == 0.0 and arr[1] > 0.0


@given(b=st.floats(1e-6, 10.0), b2=st.floats(1e-6, 10.0))
def test_downlink_rate_monotone_in_bandwidth(b, b2):
    ch = simple_channel()
    lo, hi = sorted((b, b2))
    assert downlink_rate(lo, ch) <= downlink_rate(hi, ch) + 1e-12


def test_downlink_rate_formula_value():
    ch = simple_channel()
    b = 5.0
    expect = b * np.log1p(ch.p * ch.g2 / (b * ch.n0))
    assert downlink_rate(b, ch) == pytest.approx(expect, rel=1e-12)


def test_immersion_zero_bandwidth_is_zero_without_domain_error():
    ch, hmd = simple_channel(), simple_hmd()
    assert immersion(0.0, 0.0, ch, hmd) == 0.0
    out = immersion(np.array([[0.0, 2.0], [3.0, 4.0]]), np.full((2, 2), 1.0), ch, hmd)
    assert out[0, 0] == 0.0 and np.all(out[np.array([[False, True], [True, True]])] != 0.0)


def test_immersion_takes_no_log_at_zero_bandwidth():
    # at b = 0 this rendering argument over t_th underflows to 0, whose log
    # would divide by zero; the zero-bandwidth cells never take it
    ch = simple_channel()
    hmd = HMDParams(resolution=3e-310, framerate=90.0, s_eff=2.0, t_th=1e6, mu=0.5)
    b = np.array([[0.0, 1.0], [0.0, 2.0]])
    with np.errstate(divide="raise"):
        out = immersion(b, np.full((2, 2), 3e-6), ch, hmd)
    assert np.all(out[:, 0] == 0.0) and np.all(np.isfinite(out[:, 1]))


def test_rendering_gain_formula_value():
    # rendering gain ln(Dv(z1*S*b + z2*mu*f^2)/T_th) is immersion per unit of rate
    ch, hmd = simple_channel(), simple_hmd(s_eff=2.0, mu=0.5)
    b, f = 4.0, 1.5
    arg = hmd.resolution * hmd.framerate * (0.5 * 2.0 * b + 0.5 * 0.5 * f**2)
    gain = immersion(b, f, ch, hmd) / downlink_rate(b, ch)
    assert gain == pytest.approx(np.log(arg / hmd.t_th), rel=1e-12)


def test_immersion_is_rate_times_gain():
    ch, hmd = simple_channel(), simple_hmd(s_eff=2.0, mu=0.5)
    b, f = 6.0, 2.0
    arg = hmd.resolution * hmd.framerate * (0.5 * 2.0 * b + 0.5 * 0.5 * f**2)
    assert immersion(b, f, ch, hmd) == pytest.approx(
        downlink_rate(b, ch) * np.log(arg / hmd.t_th), rel=1e-12
    )


def test_latency_linear_in_bandwidth_and_distance():
    ch = simple_channel(d=40.0)
    assert latency(3.0, ch) == pytest.approx(0.02 * 40.0 * 3.0, rel=1e-12)
    assert latency(0.0, ch) == 0.0


@given(r1=st.floats(0.0, 50.0), r2=st.floats(0.0, 50.0))
def test_av_utility_strictly_decreasing_in_reward(r1, r2):
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    lo, hi = sorted((r1, r2))
    value = buyer_value(2.0, 1.0, ch, hmd, sens)
    u_lo, u_hi = value - lo, value - hi
    assert u_lo - u_hi == pytest.approx(hi - lo, rel=1e-9, abs=1e-9)


def test_buyer_utilities_match_scalar_evaluations(rng):
    grid = make_grid(rng)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    menu = ContractMenu(
        b=rng.uniform(0.5, 10.0, (2, 2)),
        f=rng.uniform(0.0, 3.0, (2, 2)),
        r=rng.uniform(0.0, 50.0, (2, 2)),
    )
    u = buyer_value(menu.b, menu.f, ch, hmd, sens) - menu.r
    for m in range(2):
        for n in range(2):
            expect = av_type_utility(menu.b[m, n], menu.f[m, n], menu.r[m, n], ch, hmd, sens)
            assert u[m, n] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_eut_expected_is_probability_weighted_sum(rng):
    grid = make_grid(rng)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    menu = ContractMenu(
        b=rng.uniform(0.5, 10.0, (2, 2)),
        f=rng.uniform(0.0, 3.0, (2, 2)),
        r=rng.uniform(0.0, 50.0, (2, 2)),
    )
    total = 0.0
    for m in range(2):
        for n in range(2):
            total += grid.q[m, n] * av_type_utility(
                menu.b[m, n], menu.f[m, n], menu.r[m, n], ch, hmd, sens
            )
    assert eut_expected(menu, grid, ch, hmd, sens) == pytest.approx(total, rel=1e-12)


# -- prospect theory --------------------------------------------------------

def test_pt_value_zero_at_reference():
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0)
    assert pt_value(10.0, pt) == 0.0


@given(u=st.floats(-100.0, 100.0), u2=st.floats(-100.0, 100.0))
def test_pt_value_nondecreasing(u, u2):
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0)
    lo, hi = sorted((u, u2))
    assert pt_value(lo, pt) <= pt_value(hi, pt) + 1e-9


@given(u=st.floats(-100.0, 9.0), k1=st.floats(0.0, 5.0), k2=st.floats(0.0, 5.0))
def test_pt_value_losses_scale_with_aversion(u, k1, k2):
    lo, hi = sorted((k1, k2))
    base = dict(delta_plus=0.88, delta_minus=0.88, u_ref=10.0)
    assert pt_value(u, PTParams(kappa=hi, **base)) <= pt_value(u, PTParams(kappa=lo, **base))


def test_pt_value_takes_no_loss_power_on_gains():
    # kappa times a loss power above 1 overflows; gains never evaluate it
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=1e308, u_ref=10.0)
    u = np.array([11.5, 30.0, 1e6])
    with np.errstate(over="raise"):
        out = pt_value(u, pt)
    assert np.array_equal(out, (u - 10.0) ** 0.88)


def test_pt_value_propagates_nan():
    # a NaN utility is not a utility at the reference point: its value, and
    # the objective of a menu holding it, must stay NaN
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0)
    out = pt_value(np.array([np.nan, -1.0, 30.0, 10.0]), pt)
    assert np.isnan(out[0])
    # the other entries are each branch's expression, bit for bit
    assert out[1] == -2.25 * 11.0**0.88
    assert out[2] == 20.0**0.88
    assert out[3] == 0.0
    assert np.isnan(pt_value(np.nan, pt))
    grid = TypeGrid(theta=[50.0, 100.0], sigma=[50.0, 100.0], q=np.full((2, 2), 0.25))
    b = np.full((2, 2), 5.0)
    r = np.array([[0.0, np.nan], [0.0, 0.0]])
    u = buyer_value(b, b / 5.0, simple_channel(), simple_hmd(), simple_sens()) - r
    assert np.isnan(pt_score(u, grid, pt))
    assert np.isnan(pt_expected(ContractMenu(b=b, f=b / 5.0, r=r), grid, simple_channel(),
                                simple_hmd(), simple_sens(), pt))


def test_prob_weight_fixed_points():
    for coeff in (0.3, 1.0, 2.5):
        assert prob_weight(1.0, coeff) == pytest.approx(1.0, abs=1e-12)
        assert prob_weight(np.exp(-1.0), coeff) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_prob_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        prob_weight(0.0, 1.0)
    with pytest.raises(ValueError):
        prob_weight(1.1, 1.0)


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000))
def test_pt_reduces_to_eut_in_neutral_setting(seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(rng)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    menu = ContractMenu(
        b=rng.uniform(0.5, 10.0, (2, 2)),
        f=rng.uniform(0.0, 3.0, (2, 2)),
        r=rng.uniform(0.0, 50.0, (2, 2)),
    )
    a = pt_expected(menu, grid, ch, hmd, sens, neutral_pt())
    b = eut_expected(menu, grid, ch, hmd, sens)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_pt_expected_nonincreasing_in_every_reward(rng):
    # the property that makes minimal feasible rewards optimal
    grid = make_grid(rng)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=0.5, u_ref=10.0)
    b = rng.uniform(0.5, 10.0, (2, 2))
    f = rng.uniform(0.0, 3.0, (2, 2))
    r = rng.uniform(0.0, 40.0, (2, 2))
    base = pt_expected(ContractMenu(b=b, f=f, r=r), grid, ch, hmd, sens, pt)
    for m in range(2):
        for n in range(2):
            bumped = r.copy()
            bumped[m, n] += 1.0
            assert (
                pt_expected(ContractMenu(b=b, f=f, r=bumped), grid, ch, hmd, sens, pt)
                <= base + 1e-12
            )


def test_pt_expected_with_weighting_uses_transformed_mass(rng):
    grid = make_grid(rng)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    menu = ContractMenu(
        b=rng.uniform(0.5, 10.0, (2, 2)),
        f=rng.uniform(0.0, 3.0, (2, 2)),
        r=rng.uniform(0.0, 50.0, (2, 2)),
    )
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=0.5, u_ref=10.0,
                  weight_coeff=0.6, use_weighting=True)
    u = buyer_value(menu.b, menu.f, ch, hmd, sens) - menu.r
    expect = float(np.sum(prob_weight(grid.q, 0.6) * pt_value(u, pt)))
    assert pt_expected(menu, grid, ch, hmd, sens, pt) == pytest.approx(expect, rel=1e-12)


def test_pt_expected_is_pt_score_of_buyer_value(rng):
    grid = make_grid(rng)
    q = np.array([[0.0, 0.3], [0.3, 0.4]])
    zero_cell = TypeGrid(theta=grid.theta, sigma=grid.sigma, q=q)
    ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
    b = rng.uniform(0.5, 10.0, (3, 2, 2))
    f = rng.uniform(0.0, 3.0, (3, 2, 2))
    r = rng.uniform(0.0, 50.0, (3, 2, 2))
    for weighting in (False, True):
        pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=0.5, u_ref=10.0,
                      weight_coeff=0.6, use_weighting=weighting)
        w = pt_weights(zero_cell, pt)
        assert w[0, 0] == 0.0
        assert np.array_equal(w[q > 0], prob_weight(q[q > 0], 0.6) if weighting else q[q > 0])
        u = buyer_value(b, f, ch, hmd, sens) - r
        expect = np.sum(w * pt_value(u, pt), axis=(-2, -1))
        assert np.array_equal(pt_score(u, zero_cell, pt), expect)
        for k in range(b.shape[0]):
            menu = ContractMenu(b=b[k], f=f[k], r=r[k])
            assert pt_expected(menu, zero_cell, ch, hmd, sens, pt) == float(expect[k])


# -- unit conversions -------------------------------------------------------

def test_dbm_to_watts_anchor_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


def test_db_to_linear_anchor_points():
    assert db_to_linear(0.0) == pytest.approx(1.0, rel=1e-12)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert db_to_linear(-25.0) == pytest.approx(10.0**-2.5, rel=1e-12)
