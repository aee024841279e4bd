"""Exact (bounded) monotone grid search and local refinement."""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from edgecontract import econ, solver
from edgecontract import feasibility as fz
from edgecontract.econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    pt_expected,
)
from edgecontract.scenario import ExperimentConfig, sample_scenario
from edgecontract.solver import (
    SearchSpec,
    monotone_grid_count,
    monotone_grids,
    refine_local,
    solve_grid,
)

from conftest import make_grid, simple_channel, simple_hmd, simple_sens


def _pt():
    return PTParams(delta_plus=0.88, delta_minus=0.88, kappa=0.5, u_ref=10.0)


def _patch_pt_score(monkeypatch, wrap):
    """Replace econ.pt_score by ``wrap(pt_score)`` where pt_expected and
    the solver both look it up: every candidate score, probe score and
    b-grid bound then goes through the wrapper."""
    patched = wrap(econ.pt_score)
    monkeypatch.setattr(econ, "pt_score", patched)
    monkeypatch.setattr(solver, "pt_score", patched)


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(b_range=(5.0, 5.0))
    with pytest.raises(ValueError):
        SearchSpec(f_range=(-1.0, 3.0))
    with pytest.raises(ValueError):
        SearchSpec(grid_points=1)


@pytest.mark.parametrize("shape,count", [((2, 2), 20), ((2, 3), 50), ((3, 3), 175)],
                         ids=["2x2", "2x3", "3x3"])
def test_monotone_grids_match_brute_force_enumeration(shape, count):
    # the exact sequence, not just the set: solve_grid's first-index tie-break
    # depends on the lexicographic row-major order
    levels = np.array([0.0, 1.0, 2.0])
    got = levels[monotone_grids(3, *shape)]
    every = np.array(list(itertools.product(levels, repeat=shape[0] * shape[1]))).reshape(-1, *shape)
    verdicts = []
    for g in every:
        verdict = (np.all(np.diff(g, axis=0) >= 0)) and (np.all(np.diff(g, axis=1) >= 0))
        # the checkers' one monotonicity definition agrees grid by grid
        assert (not fz.monotone_descents(g).any()) == verdict
        verdicts.append(verdict)
    expect = every[verdicts]
    assert got.shape == (len(expect), *shape)
    assert np.array_equal(got, expect)
    # known count: plane partitions in an m x n x 2 box
    assert len(got) == count
    # and on the whole stack at once
    assert np.array_equal(~fz.monotone_descents(every).any(axis=(-3, -2, -1)), verdicts)
    # load_config bounds their number in closed form
    for points in (3, 4, 5):
        assert monotone_grid_count(points, *shape) == len(monotone_grids(points, *shape))


@pytest.mark.parametrize("shape,points", [((1, 4), 5), ((3, 1), 5), ((2, 2), 5), ((3, 3), 4)],
                         ids=["1x4", "3x1", "2x2", "3x3"])
def test_monotone_grids_match_brute_force_on_more_lattices(shape, points):
    # single-row and single-column lattices, and more levels than the
    # three-level test above
    every = np.array(list(itertools.product(range(points), repeat=shape[0] * shape[1])))
    every = every.reshape(-1, *shape)
    keep = ~fz.monotone_descents(every).any(axis=(-3, -2, -1))
    assert np.array_equal(monotone_grids(points, *shape), every[keep])
    assert monotone_grid_count(points, *shape) == np.count_nonzero(keep)


def test_monotone_grid_count_admits_the_largest_benchmarked_lattices():
    assert monotone_grid_count(9, 3, 3) == 259_545
    assert monotone_grid_count(5, 4, 4) == 232_848
    assert monotone_grid_count(1000, 2, 2) > solver.MAX_GRIDS >= 259_545


def test_solve_grid_refuses_too_many_grids_before_enumerating(rng, monkeypatch):
    # called directly, not through load_config, solve_grid still bounds the
    # enumeration: monotone_grids checks the count in closed form first
    def never(*a):
        raise AssertionError("monotone_grids enumerated an unbounded grid_points")

    monkeypatch.setattr(solver, "itertools", SimpleNamespace(
        product=itertools.product, combinations_with_replacement=never))
    args = (make_grid(rng), simple_channel(), simple_hmd(), simple_sens(), _pt())
    with pytest.raises(ValueError, match="grid_points = 1000"):
        solve_grid(SearchSpec(grid_points=1000), *args)
    with pytest.raises(ValueError, match="grid_points = 1000"):
        monotone_grids(1000, 2, 2)


def test_solve_grid_matches_independent_enumeration(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    spec = SearchSpec(grid_points=3)
    result = solve_grid(spec, grid, ch, hmd, sens, pt)

    # brute force: every pair of monotone level assignments, completed with
    # the neighbor recurrence (exact on 2 x 2, independent of the solver's
    # oracle route), scored the same way
    b_levels = np.linspace(0.0, 10.0, 3)
    f_levels = np.linspace(0.0, 3.0, 3)
    best = -np.inf
    for b in b_levels[monotone_grids(3, 2, 2)]:
        for f in f_levels[monotone_grids(3, 2, 2)]:
            try:
                r = fz.optimal_rewards(b, f, grid)
            except fz.InfeasibleMenuError:
                continue
            obj = pt_expected(ContractMenu(b=b, f=f, r=r), grid, ch, hmd, sens, pt)
            best = max(best, obj)
    assert result.objective == pytest.approx(best, rel=1e-6)


def _per_candidate_solve(spec, grid, ch, hmd, sens, pt):
    """The search one candidate at a time: complete with the scalar oracle,
    score with pt_expected, first strict improvement wins."""
    b_levels = np.linspace(spec.b_range[0], spec.b_range[1], spec.grid_points)
    f_levels = np.linspace(spec.f_range[0], spec.f_range[1], spec.grid_points)
    best_menu, best_obj, evals = None, -np.inf, 0
    idx = monotone_grids(spec.grid_points, grid.m, grid.n)
    for b in b_levels[idx]:
        for f in f_levels[idx]:
            evals += 1
            try:
                r = fz.minimal_reward_oracle(b, f, grid)
            except fz.InfeasibleMenuError:
                continue
            menu = ContractMenu(b=b, f=f, r=r)
            obj = pt_expected(menu, grid, ch, hmd, sens, pt)
            if obj > best_obj:
                best_menu, best_obj = menu, obj
    return best_menu, best_obj, evals


# use_weighting=True keeps the plain lattice id; the default config's
# raw-probability branch is compared too
@pytest.mark.parametrize("shape,weighting", [
    pytest.param(shape, weighting, id="%dx%d" % shape + ("" if weighting else "-unweighted"))
    for shape in [(2, 2), (2, 3), (3, 2), (3, 3)]
    for weighting in (True, False)
])
def test_solve_grid_equals_per_candidate_loop(rng, monkeypatch, shape, weighting):
    m, n = shape
    grid = make_grid(rng, m, n)
    ch = simple_channel(d=rng.uniform(10.0, 80.0, shape))
    hmd = simple_hmd(s_eff=rng.uniform(1.5, 3.0, shape), mu=rng.uniform(0.2, 1.0, shape))
    sens = simple_sens()
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0,
                  weight_coeff=0.7, use_weighting=weighting)
    spec = SearchSpec(grid_points=3)
    menu, obj, evals = _per_candidate_solve(spec, grid, ch, hmd, sens, pt)
    # the module's chunk, then a small prime, so that the maximum falls at
    # some inner offset of a chunk and chunks end mid-way through an f sweep
    for chunk in (solver.CHUNK, 13):
        monkeypatch.setattr(solver, "CHUNK", chunk)
        result = solve_grid(spec, grid, ch, hmd, sens, pt)
        assert result.objective == obj
        assert result.evaluations == evals
        for field in ("b", "f", "r"):
            assert np.array_equal(getattr(result.menu, field), getattr(menu, field)), field


def test_solve_grid_breaks_ties_toward_first_candidate(rng, monkeypatch):
    # objectives rounded to one decimal tie across many candidates and
    # chunks; the per-candidate loop scores with the same rounding as the
    # solver, whose candidate scores and b-grid bounds are all pt_score
    grid = make_grid(rng, 2, 3)
    args = (grid, simple_channel(), simple_hmd(), simple_sens(), _pt())
    spec = SearchSpec(grid_points=3)
    _patch_pt_score(monkeypatch, lambda real: lambda *a: np.round(real(*a), 1))
    monkeypatch.setattr(solver, "CHUNK", 13)
    menu, obj, _ = _per_candidate_solve(spec, *args)
    result = solve_grid(spec, *args)
    assert result.objective == obj
    for field in ("b", "f", "r"):
        assert np.array_equal(getattr(result.menu, field), getattr(menu, field)), field


def test_solve_grid_objective_grows_with_nested_levels():
    # linspace levels at 3 points are a subset of those at 5 points, so the
    # finer search sees every coarser candidate, completed and scored alike
    cfg = ExperimentConfig()
    for i in range(6):
        sc = sample_scenario(cfg, np.random.default_rng((17, i)))
        args = (sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
        coarse = solve_grid(SearchSpec(grid_points=3), *args)
        fine = solve_grid(SearchSpec(grid_points=5), *args)
        assert fine.objective >= coarse.objective


def test_solve_grid_never_picks_nan_objective(rng, monkeypatch):
    grid = make_grid(rng)
    args = (grid, simple_channel(), simple_hmd(), simple_sens(), _pt())
    spec = SearchSpec(grid_points=3)
    _, best, _ = _per_candidate_solve(spec, *args)
    real = solver.pt_score

    def nan_at_best(*a):
        obj = real(*a)
        return np.where(obj == best, np.nan, obj)

    monkeypatch.setattr(solver, "pt_score", nan_at_best)
    result = solve_grid(spec, *args)
    assert np.isfinite(result.objective) and result.objective < best

    monkeypatch.setattr(solver, "pt_score", lambda *a: np.full(len(a[0]), np.nan))
    with pytest.raises(FloatingPointError):
        solve_grid(spec, *args)


@pytest.mark.parametrize("shape,points", [((2, 2), 3), ((2, 3), 3), ((3, 3), 3), ((2, 2), 5)],
                         ids=["2x2", "2x3", "3x3", "2x2-5pts"])
def test_b_grid_bound_covers_every_candidate_sharing_it(rng, shape, points):
    b_levels = np.linspace(0.0, 10.0, points)
    f_levels = np.linspace(0.0, 3.0, points)
    b_idx = monotone_grids(points, *shape)
    f_cands = f_levels[b_idx]  # one enumeration indexes both axes' levels
    weighted = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0,
                        weight_coeff=0.7, use_weighting=True)
    for pt in (_pt(), weighted):
        grid = make_grid(rng, *shape)
        args = (
            grid,
            simple_channel(d=rng.uniform(10.0, 80.0, shape)),
            simple_hmd(s_eff=rng.uniform(1.5, 3.0, shape), mu=rng.uniform(0.2, 1.0, shape)),
            simple_sens(),
            pt,
        )
        value, ir = econ.level_tables(b_levels, f_levels, *args[:4])
        bound = solver._b_grid_bounds(value - ir, b_idx, grid, pt)
        assert bound.shape == (len(b_idx),) and np.all(np.isfinite(bound))
        scored = 0
        for i, b in enumerate(b_levels[b_idx]):
            b_stack = np.broadcast_to(b, f_cands.shape)
            value = econ.buyer_value(b_stack, f_cands, *args[1:4])
            _, feasible, obj = solver._complete_and_score(b_stack, f_cands, value, grid, pt)
            assert np.all(obj[feasible] <= bound[i]), i
            scored += np.count_nonzero(feasible)
        assert scored > 0


def test_solve_grid_completes_fewer_candidates_than_it_covers(monkeypatch):
    sc = sample_scenario(ExperimentConfig(), np.random.default_rng((17, 0)))
    args = (sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    spec = SearchSpec(grid_points=5)
    menu, obj, evals = _per_candidate_solve(spec, *args)
    real = solver._complete_and_score
    rows = 0

    def counting(b, *a):
        nonlocal rows
        rows += len(b)
        return real(b, *a)

    monkeypatch.setattr(solver, "_complete_and_score", counting)
    result = solve_grid(spec, *args)
    assert rows < evals == result.evaluations
    assert result.objective == obj
    for field in ("b", "f", "r"):
        assert np.array_equal(getattr(result.menu, field), getattr(menu, field)), field


def test_solve_grid_first_pass_is_one_b_grid(monkeypatch):
    # draw 0: only the best-bound b-grid's bound reaches the answer, so the
    # search completes that b-grid's 105 f-grids (5 points on 2 x 2) and
    # stops.  Draw 7: several b-grids stay live, and the first pass's
    # incumbent still cuts the search below one full CHUNK
    spec = SearchSpec(grid_points=5)
    real = solver._complete_and_score
    rows = []

    def counting(b, *a):
        rows.append(len(b))
        return real(b, *a)

    for draw in (0, 7):
        sc = sample_scenario(ExperimentConfig(), np.random.default_rng((17, draw)))
        args = (sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
        rows.clear()
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_complete_and_score", counting)
            result = solve_grid(spec, *args)
        assert rows[0] == 105
        if draw == 0:
            assert rows == [105]
        else:
            assert len(rows) > 1 and sum(rows) < 768
        # a bound that prunes nothing completes every candidate
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_b_grid_bounds", lambda *a: np.full(105, np.inf))
            exhaustive = solve_grid(spec, *args)
        assert result.objective == exhaustive.objective
        assert result.evaluations == exhaustive.evaluations == 105 * 105
        for field in ("b", "f", "r"):
            assert np.array_equal(getattr(result.menu, field), getattr(exhaustive.menu, field))


def test_solve_grid_answer_holds_under_any_valid_bound(rng, monkeypatch):
    # objectives floored to multiples of 5 tie across about a third of the
    # b-grids; a bound at or above each b-grid's best objective must give
    # the first-index answer whatever order it visits them in.  Zero slack
    # puts a bound exactly on the incumbent (pruned only when strictly
    # below), random slack visits tied b-grids out of index order, and a NaN
    # bound never prunes
    grid = make_grid(rng)
    args = (grid, simple_channel(), simple_hmd(), simple_sens(), _pt())
    spec = SearchSpec(grid_points=5)
    _patch_pt_score(monkeypatch, lambda real: lambda *a: np.floor(real(*a) / 5.0) * 5.0)
    menu, obj, _ = _per_candidate_solve(spec, *args)
    b_cands = np.linspace(0.0, 10.0, 5)[monotone_grids(5, 2, 2)]
    f_cands = np.linspace(0.0, 3.0, 5)[monotone_grids(5, 2, 2)]
    b_stacks = [np.broadcast_to(b, f_cands.shape) for b in b_cands]
    tightest = np.array([
        solver._complete_and_score(
            b, f_cands, econ.buyer_value(b, f_cands, *args[1:4]), grid, args[4]
        )[2].max()
        for b in b_stacks
    ])
    assert np.count_nonzero(tightest == obj) > 1
    for draw in range(20):
        slack = np.where(rng.random(len(tightest)) < 0.5, 0.0, rng.uniform(0.0, 1.0, len(tightest)))
        bound = tightest + slack
        if draw % 2:
            bound[rng.random(len(bound)) < 0.5] = np.nan
        monkeypatch.setattr(solver, "_b_grid_bounds", lambda *a: bound.copy())
        result = solve_grid(spec, *args)
        assert result.objective == obj
        for field in ("b", "f", "r"):
            assert np.array_equal(getattr(result.menu, field), getattr(menu, field)), field


def test_solve_grid_output_is_feasible_and_monotone(rng):
    for _ in range(5):
        grid = make_grid(rng)
        ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
        result = solve_grid(SearchSpec(grid_points=3), grid, ch, hmd, sens, pt)
        report = fz.check_full(result.menu, grid)
        assert report.feasible, report


def _per_probe_refine(result, spec, grid, ch, hmd, sens, pt):
    """The pattern search one probe at a time: box and monotonicity checks,
    minimal_reward_oracle, a fresh menu scored with pt_expected.  Returns the
    menu, its objective, the evaluation count and the accepted moves."""
    b, f = result.menu.b.copy(), result.menu.f.copy()
    best_menu, best_obj, evals = result.menu, result.objective, result.evaluations
    moves = 0
    step_b = (spec.b_range[1] - spec.b_range[0]) / max(spec.grid_points - 1, 1)
    step_f = (spec.f_range[1] - spec.f_range[0]) / max(spec.grid_points - 1, 1)

    def try_move(b_new, f_new):
        nonlocal evals
        if np.any(b_new < spec.b_range[0]) or np.any(b_new > spec.b_range[1]):
            return None
        if np.any(f_new < spec.f_range[0]) or np.any(f_new > spec.f_range[1]):
            return None
        if fz.check_monotone(ContractMenu(b=b_new, f=f_new, r=np.zeros_like(b_new))):
            return None
        try:
            r = fz.minimal_reward_oracle(b_new, f_new, grid)
        except fz.InfeasibleMenuError:
            return None
        evals += 1
        menu = ContractMenu(b=b_new.copy(), f=f_new.copy(), r=r)
        return menu, pt_expected(menu, grid, ch, hmd, sens, pt)

    for _ in range(spec.refine_iters):
        improved = False
        for arr, step in ((b, step_b), (f, step_f)):
            for m in range(grid.m):
                for n in range(grid.n):
                    for sgn in (+1.0, -1.0):
                        trial = arr.copy()
                        trial[m, n] += sgn * step
                        cand = try_move(trial, f) if arr is b else try_move(b, trial)
                        if cand is not None and cand[1] > best_obj:
                            best_menu, best_obj = cand
                            arr[m, n] = trial[m, n]
                            improved = True
                            moves += 1
        if not improved:
            step_b *= 0.5
            step_f *= 0.5
            if max(step_b, step_f) < 1e-6 * max(
                spec.b_range[1] - spec.b_range[0], spec.f_range[1] - spec.f_range[0]
            ):
                break
    return best_menu, best_obj, evals, moves


def test_refine_never_decreases_objective(rng):
    grid = make_grid(rng)
    ch, hmd, sens, pt = simple_channel(), simple_hmd(), simple_sens(), _pt()
    spec = SearchSpec(grid_points=3, refine_iters=15)
    coarse = solve_grid(spec, grid, ch, hmd, sens, pt)
    refined = refine_local(coarse, spec, grid, ch, hmd, sens, pt)
    assert refined.objective >= coarse.objective - 1e-12
    assert fz.check_full(refined.menu, grid).feasible


def test_refine_with_no_sweeps_returns_grid_result(rng, monkeypatch):
    grid = make_grid(rng)
    args = (grid, simple_channel(), simple_hmd(), simple_sens(), _pt())
    spec = SearchSpec(grid_points=3, refine_iters=0)
    coarse = solve_grid(spec, *args)

    def never(*a):
        raise AssertionError("refine_local completed a probe")

    monkeypatch.setattr(solver, "_complete_and_score", never)
    result = refine_local(coarse, spec, *args)
    assert result.objective == coarse.objective
    assert result.evaluations == coarse.evaluations
    for field in ("b", "f", "r"):
        assert np.array_equal(getattr(result.menu, field), getattr(coarse.menu, field)), field


def test_refine_runs_the_sweep_whose_step_lands_on_min_step(rng, monkeypatch):
    # at 15626 points on an 8-wide b box the b step is 64 times min_step
    # (1e-6 of the box), so the sixth halving lands exactly on min_step and
    # that sweep still runs.  A flat objective accepts no move, so every
    # sweep down to it is scored and counted
    grid = make_grid(rng)
    args = (grid, simple_channel(), simple_hmd(), simple_sens(), _pt())
    spec = SearchSpec(b_range=(0.0, 8.0), grid_points=15626)
    assert np.ldexp(8.0 / 15625, -6) == 1e-6 * 8.0
    start = solve_grid(replace(spec, grid_points=3), *args)
    _patch_pt_score(monkeypatch, lambda real: lambda u, *a: np.zeros(np.shape(u)[:-2]))
    start = replace(start, objective=0.0)
    _, _, evals, moves = _per_probe_refine(start, spec, *args)
    result = refine_local(start, spec, *args)
    assert moves == 0 and result.evaluations == evals > start.evaluations


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


# refine_iters=40 (the default) keeps the plain lattice id; the smaller caps
# fall inside one precomputed probe sequence of the batched search
@pytest.mark.parametrize("shape,iters", [
    pytest.param(shape, iters, id="%dx%d" % shape + ("" if iters == 40 else "-iters%d" % iters))
    for shape in [(2, 2), (2, 3), (3, 2), (3, 3)]
    for iters in (1, 2, 3, 40)
])
def test_refine_local_equals_per_probe_loop(rng, monkeypatch, shape, iters):
    pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=10.0,
                  weight_coeff=0.7, use_weighting=True)
    scenarios = []
    for _ in range(5):
        scenarios.append((
            make_grid(rng, *shape),
            simple_channel(d=rng.uniform(10.0, 80.0, shape)),
            simple_hmd(s_eff=rng.uniform(1.5, 3.0, shape), mu=rng.uniform(0.2, 1.0, shape)),
            simple_sens(),
            pt,
        ))
    # on these scenarios the grid optimum sits at b_max = 10 in the default
    # box; a wider b box leaves the pattern search moves to accept
    spec = SearchSpec(b_range=(0.0, 40.0), grid_points=3, refine_iters=iters)
    # every first-sweep probe from the 3-point grid optimum is a grid
    # candidate, so no capped run could move from there; they start from the
    # 2-point optimum instead
    start = spec if iters == 40 else replace(spec, grid_points=2)
    real = solver._complete_and_score
    calls = 0

    def counting(*a):
        nonlocal calls
        calls += 1
        return real(*a)

    monkeypatch.setattr(solver, "_complete_and_score", counting)
    moved = 0
    for args in scenarios:
        coarse = solve_grid(start, *args)
        menu, obj, evals, moves = _per_probe_refine(coarse, spec, *args)
        calls = 0
        result = refine_local(coarse, spec, *args)
        # one batch per accepted move, plus one
        assert calls <= moves + 1
        assert result.objective == obj
        assert result.evaluations == evals
        for field in ("b", "f", "r"):
            assert np.array_equal(getattr(result.menu, field), getattr(menu, field)), field
        moved += obj > coarse.objective
    # the comparison covers accepted moves, not only rejected probes
    assert moved > 0
