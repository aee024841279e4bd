"""Feasibility checking, constraint reduction, and minimal-reward recovery."""

import numpy as np
import pytest

from edgecontract import feasibility as fz
from edgecontract.econ import ContractMenu, TypeGrid

from conftest import implementable_bf, make_grid, monotone_bf


def _menu(b, f, r):
    return ContractMenu(b=np.asarray(b, float), f=np.asarray(f, float), r=np.asarray(r, float))


# -- elementary checks ------------------------------------------------------

def test_cross_utility_matches_formula(rng):
    grid = make_grid(rng)
    menu = _menu(rng.uniform(0, 10, (2, 2)), rng.uniform(0, 3, (2, 2)), rng.uniform(0, 50, (2, 2)))
    for m in range(2):
        for n in range(2):
            for p in range(2):
                for q in range(2):
                    expect = (
                        menu.r[p, q]
                        - menu.b[p, q] ** 2 / grid.theta[m]
                        - menu.f[p, q] ** 2 / grid.sigma[n]
                    )
                    assert fz.cross_utility(menu, grid, m, n, p, q) == pytest.approx(
                        expect, rel=1e-12, abs=1e-12
                    )
    tensor = fz.cross_utility_tensor(menu, grid)
    for m in range(2):
        for n in range(2):
            for p in range(2):
                for q in range(2):
                    assert tensor[m, n, p, q] == pytest.approx(
                        fz.cross_utility(menu, grid, m, n, p, q), rel=1e-12, abs=1e-12
                    )


def test_cross_utility_index_bounds(rng):
    grid = make_grid(rng)
    menu = _menu(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(IndexError):
        fz.cross_utility(menu, grid, 2, 0, 0, 0)


def test_check_ir_flags_negative_own_utility(rng):
    grid = make_grid(rng)
    b = np.full((2, 2), 5.0)
    f = np.full((2, 2), 2.0)
    r = b**2 / grid.theta[:, None] + f**2 / grid.sigma[None, :]
    assert fz.check_ir(_menu(b, f, r), grid) == []
    r_bad = r.copy()
    r_bad[1, 1] -= 1.0
    viol = fz.check_ir(_menu(b, f, r_bad), grid)
    assert len(viol) == 1 and viol[0][:2] == (1, 1)


def test_check_ic_full_counts_all_pairs(rng):
    grid = make_grid(rng)
    # one item strictly dominates: every other type envies it
    b = np.zeros((2, 2))
    f = np.zeros((2, 2))
    r = np.zeros((2, 2))
    r[0, 0] = 1.0
    viol = fz.check_ic_full(_menu(b, f, r), grid)
    assert len(viol) == 3
    assert all(v[2:4] == (0, 0) for v in viol)


def test_check_monotone_accepts_per_axis_sorted(rng):
    b, f = monotone_bf(rng)
    assert fz.check_monotone(_menu(b, f, np.zeros((2, 2)))) == []


def test_check_monotone_rejects_dominated_corner():
    # low corner exceeds both cross neighbors: b_{0,0} > max(b_{0,1}, b_{1,0})
    b = np.array([[5.0, 1.0], [2.0, 3.0]])
    f = np.zeros((2, 2))
    assert fz.check_monotone(_menu(b, f, np.zeros((2, 2)))) != []


# -- minimal-reward oracle --------------------------------------------------

def test_oracle_output_is_feasible(rng):
    for _ in range(50):
        grid = make_grid(rng)
        b, f, r = implementable_bf(rng, grid)
        report = fz.check_full(_menu(b, f, r), grid)
        assert report.feasible, report


def test_oracle_output_is_componentwise_minimal(rng):
    for _ in range(20):
        grid = make_grid(rng)
        b, f, r = implementable_bf(rng, grid)
        # decreasing any single entry by a visible amount must break feasibility
        for m in range(2):
            for n in range(2):
                r_probe = r.copy()
                r_probe[m, n] -= 1e-6
                report = fz.check_full(_menu(b, f, r_probe), grid)
                assert not (
                    not report.ir_violations and not report.ic_violations
                ), f"entry ({m},{n}) was not minimal"


def _relax_ic(floor, b, f, grid):
    """Independent least-fixpoint completion: smallest R >= floor meeting IC."""
    b2, f2 = b**2, f**2
    r = floor.copy()
    for _ in range(8):
        for m in range(grid.m):
            for n in range(grid.n):
                bound = np.max(
                    r + (b2[m, n] - b2) / grid.theta[m] + (f2[m, n] - f2) / grid.sigma[n]
                )
                r[m, n] = max(r[m, n], bound)
    return r


def test_oracle_below_other_feasible_rewards(rng):
    # uniform shifts keep IC differences intact, so they stay feasible; raised
    # participation floors re-relaxed to an IC fixpoint give non-trivially
    # different feasible candidates — all must dominate the oracle entrywise
    for _ in range(15):
        grid = make_grid(rng)
        b, f, r_min = implementable_bf(rng, grid)
        shift = r_min + rng.uniform(0.1, 5.0)
        assert fz.check_full(_menu(b, f, shift), grid).feasible
        assert np.all(r_min <= shift + fz.SLACK_TOL)

        floor = r_min + rng.uniform(0.0, 2.0, size=(2, 2))
        r_cand = _relax_ic(floor, b, f, grid)
        report = fz.check_full(_menu(b, f, r_cand), grid)
        assert not (report.ir_violations or report.ic_violations)
        assert np.all(r_min <= r_cand + fz.SLACK_TOL)


def test_oracle_detects_positive_cycle():
    # anti-diagonal pair: b jumps with sigma while f jumps with theta, making
    # the two cross constraints between (0,1) and (1,0) unsatisfiable together
    grid = TypeGrid(theta=[50.0, 60.0], sigma=[50.0, 60.0], q=np.full((2, 2), 0.25))
    b = np.array([[0.0, 10.0], [0.1, 10.0]])
    f = np.array([[0.0, 0.0], [3.0, 3.0]])
    assert fz.check_monotone(_menu(b, f, np.zeros((2, 2)))) == []
    with pytest.raises(fz.InfeasibleMenuError):
        fz.minimal_reward_oracle(b, f, grid)
    with pytest.raises(fz.InfeasibleMenuError):
        fz.recurrence_utilities(b, f, grid)


def test_oracle_shape_validation(rng):
    grid = make_grid(rng)
    with pytest.raises(ValueError):
        fz.minimal_reward_oracle(np.zeros((3, 2)), np.zeros((2, 2)), grid)


# -- recurrence vs oracle ---------------------------------------------------

def test_recurrence_rejects_non_monotone(rng):
    grid = make_grid(rng)
    b = np.array([[5.0, 1.0], [2.0, 3.0]])
    f = np.zeros((2, 2))
    with pytest.raises(fz.NonMonotoneError):
        fz.recurrence_utilities(b, f, grid)


def test_recurrence_matches_oracle_on_2x2(rng):
    for _ in range(100):
        grid = make_grid(rng)
        b, f, r_orc = implementable_bf(rng, grid)
        r_rec = fz.optimal_rewards(b, f, grid)
        assert np.allclose(r_rec, r_orc, rtol=1e-6, atol=1e-9)


def test_recurrence_and_oracle_agree_on_infeasibility(rng):
    checked = 0
    while checked < 30:
        grid = make_grid(rng)
        b, f = monotone_bf(rng)
        try:
            fz.minimal_reward_oracle(b, f, grid)
            orc_ok = True
        except fz.InfeasibleMenuError:
            orc_ok = False
        try:
            fz.optimal_rewards(b, f, grid)
            rec_ok = True
        except fz.InfeasibleMenuError:
            rec_ok = False
        assert orc_ok == rec_ok
        checked += 1


def test_recurrence_zero_resources_gives_zero_rewards(rng):
    grid = make_grid(rng)
    z = np.zeros((2, 2))
    assert np.allclose(fz.optimal_rewards(z, z, grid), 0.0)


def test_delta_lambda_positive(rng):
    grid = make_grid(rng, 3, 3)
    dl = fz.DeltaLambda.from_grid(grid)
    assert np.all(dl.delta > 0) and np.all(dl.lam > 0)
    assert dl.delta.shape == (2,) and dl.lam.shape == (2,)


# -- reduced checker --------------------------------------------------------

def test_reduced_equals_full_on_random_menus(rng):
    disagreements = 0
    for trial in range(300):
        grid = make_grid(rng)
        b, f, r = implementable_bf(rng, grid)
        if trial % 2 == 1:
            r = r * rng.uniform(0.8, 1.2, size=r.shape)
        menu = _menu(b, f, r)
        if fz.check_full(menu, grid).feasible != fz.check_reduced(menu, grid).feasible:
            disagreements += 1
    assert disagreements == 0


def test_reduced_checker_is_cheaper_but_equivalent_3x3(rng):
    disagreements = 0
    trials = 0
    while trials < 60:
        grid = make_grid(rng, 3, 3)
        b, f = monotone_bf(rng, 3, 3)
        try:
            r = fz.minimal_reward_oracle(b, f, grid)
        except fz.InfeasibleMenuError:
            continue
        trials += 1
        if trials % 2 == 1:
            r = r * rng.uniform(0.8, 1.2, size=r.shape)
        menu = _menu(b, f, r)
        if fz.check_full(menu, grid).feasible != fz.check_reduced(menu, grid).feasible:
            disagreements += 1
    assert disagreements == 0


def test_feasibility_report_csv_rows(rng):
    grid = make_grid(rng)
    r = np.zeros((2, 2))
    r[0, 0] = 1.0
    report = fz.check_full(_menu(np.zeros((2, 2)), np.zeros((2, 2)), r), grid)
    rows = report.csv_rows()
    assert rows[0] == "kind,m,n,p,q,slack"
    assert any(row.startswith("ic,") for row in rows)
    assert not report.feasible
