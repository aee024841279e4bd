"""Exhaustive monotone grid search and local refinement."""

import itertools

import numpy as np
import pytest

from edgecontract import feasibility as fz
from edgecontract import solver
from edgecontract.econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    pt_expected,
)
from edgecontract.solver import SearchSpec, monotone_grids, refine_local, solve_grid

from conftest import make_grid, simple_channel, simple_hmd, simple_sens


def _pt():
    return PTParams(delta_plus=0.88, delta_minus=0.88, kappa=0.5, u_ref=10.0)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(b_range=(5.0, 5.0))
    with pytest.raises(ValueError):
        SearchSpec(f_range=(-1.0, 3.0))
    with pytest.raises(ValueError):
        SearchSpec(grid_points=1)


def test_monotone_grids_match_brute_force_enumeration():
    levels = np.array([0.0, 1.0, 2.0])
    got = {tuple(g.ravel()) for g in monotone_grids(levels, 2, 2)}
    expect = set()
    for vals in itertools.product(levels, repeat=4):
        g = np.array(vals).reshape(2, 2)
        if (np.all(np.diff(g, axis=0) >= 0)) and (np.all(np.diff(g, axis=1) >= 0)):
            expect.add(tuple(g.ravel()))
    assert got == expect
    # known count for 2x2 with 3 levels (plane partitions in a 2x2x2 box)
    assert len(got) == 20


def test_solve_grid_matches_independent_enumeration(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    spec = SearchSpec(grid_points=3)
    result = solve_grid(spec, grid, ch, hmd, sens, pt)

    # brute force: every pair of monotone level assignments, completed with
    # the reward oracle, scored the same way
    b_levels = np.linspace(0.0, 10.0, 3)
    f_levels = np.linspace(0.0, 3.0, 3)
    best = -np.inf
    for b in monotone_grids(b_levels, 2, 2):
        for f in monotone_grids(f_levels, 2, 2):
            try:
                r = fz.minimal_reward_oracle(b, f, grid)
            except fz.InfeasibleMenuError:
                continue
            obj = pt_expected(ContractMenu(b=b, f=f, r=r), grid, ch, hmd, sens, pt)
            best = max(best, obj)
    assert result.objective == pytest.approx(best, rel=1e-6)


def test_solve_grid_output_is_feasible_and_monotone(rng):
    for _ in range(5):
        grid = make_grid(rng)
        ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
        result = solve_grid(SearchSpec(grid_points=3), grid, ch, hmd, sens, pt)
        report = fz.check_full(result.menu, grid)
        assert report.feasible, report


def test_refine_never_decreases_objective(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    spec = SearchSpec(grid_points=3, refine_iters=15)
    coarse = solve_grid(spec, grid, ch, hmd, sens, pt)
    refined = refine_local(coarse, spec, grid, ch, hmd, sens, pt)
    assert refined.objective >= coarse.objective - 1e-12
    assert fz.check_full(refined.menu, grid).feasible


def test_refine_requires_feasible_start(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    bad = solver.SolveResult(
        menu=ContractMenu(b=np.zeros((2, 2)), f=np.zeros((2, 2)), r=np.zeros((2, 2))),
        objective=0.0,
        feasible=False,
        evaluations=0,
    )
    with pytest.raises(ValueError):
        refine_local(bad, SearchSpec(), grid, ch, hmd, sens, pt)


def test_refined_menu_stays_inside_search_box(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    spec = SearchSpec(grid_points=3, refine_iters=10)
    result = refine_local(solve_grid(spec, grid, ch, hmd, sens, pt), spec, grid, ch, hmd, sens, pt)
    assert np.all(result.menu.b >= spec.b_range[0]) and np.all(result.menu.b <= spec.b_range[1])
    assert np.all(result.menu.f >= spec.f_range[0]) and np.all(result.menu.f <= spec.f_range[1])


def test_refine_keeps_monotonicity_on_2x3_lattice():
    # on this 2 x 3 scenario a pattern-search probe breaks f monotonicity;
    # minimal_reward_oracle completes such probes without complaint, so
    # refine_local has to reject them itself
    grid = TypeGrid(
        theta=np.array([41.9494192225345, 153.72084163750117]),
        sigma=np.array([17.762089661050535, 40.759592811286026, 102.32945487477328]),
        q=np.array([[0.18577354956499117, 0.14652051138747962, 0.18543784375388933],
                    [0.13061240532023558, 0.21766222290009674, 0.13399346707330748]]),
    )
    ch = ChannelParams(
        p=np.array([[0.18578528981680592, 0.10121259031557783, 0.1339606102828187],
                    [0.19329303073726167, 0.11183974091388016, 0.21830831708681184]]),
        g2=np.array([[0.003945174569196463, 0.0046434282038432745, 0.005429040413823905],
                     [0.004671970782976997, 0.003372312012205157, 0.004259341274455013]]),
        n0=3.162277660168379e-07,
        c=0.02,
        d=np.array([[11.558348448642136, 36.14871242558085, 34.7817426906265],
                    [38.01584214561789, 24.767009269738615, 73.8998348821484]]),
    )
    hmd = HMDParams(
        resolution=2592000.0,
        framerate=90.0,
        s_eff=np.array([[2.7573998620323614, 1.9515024878767604, 2.850542044301076],
                        [2.202855445523565, 2.2562209528493558, 2.109900624414787]]),
        t_th=1e6,
        zeta1=0.5,
        zeta2=0.5,
        mu=np.array([[0.623246913380832, 0.9649419370283852, 0.7896727181428784],
                     [0.7418419584573694, 0.21628303300344887, 0.6935015111065366]]),
    )
    sens = SensitivityParams(alpha_imm=0.05, beta_lat=0.5)
    spec = SearchSpec(grid_points=3)
    coarse = solve_grid(spec, grid, ch, hmd, sens, _pt())
    refined = refine_local(coarse, spec, grid, ch, hmd, sens, _pt())
    assert refined.objective >= coarse.objective
    assert fz.check_full(refined.menu, grid).feasible
