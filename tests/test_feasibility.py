"""Feasibility checking, constraint reduction, and minimal-reward recovery."""

import itertools

import numpy as np
import pytest

from edgecontract import feasibility as fz
from edgecontract.econ import ContractMenu, TypeGrid, seller_cost

from conftest import cross_utility, implementable_bf, make_grid, monotone_bf


def _menu(b, f, r):
    return ContractMenu(b=np.asarray(b, float), f=np.asarray(f, float), r=np.asarray(r, float))


# -- elementary checks ------------------------------------------------------

def test_cross_utility_matches_formula(rng):
    grid = make_grid(rng)
    menu = _menu(rng.uniform(0, 10, (2, 2)), rng.uniform(0, 3, (2, 2)), rng.uniform(0, 50, (2, 2)))
    tensor = fz.cross_utility_tensor(menu, grid)
    for m, n, p, q in itertools.product(range(2), repeat=4):
        assert tensor[m, n, p, q] == pytest.approx(
            cross_utility(menu, grid, m, n, p, q), rel=1e-12, abs=1e-12
        )


def test_check_ir_flags_negative_own_utility(rng):
    grid = make_grid(rng)
    b = np.full((2, 2), 5.0)
    f = np.full((2, 2), 2.0)
    r = b**2 / grid.theta[:, None] + f**2 / grid.sigma[None, :]
    assert fz.check_full(_menu(b, f, r), grid).ir_violations == []
    r_bad = r.copy()
    r_bad[1, 1] -= 1.0
    viol = fz.check_full(_menu(b, f, r_bad), grid).ir_violations
    assert len(viol) == 1 and viol[0][:2] == (1, 1)


def test_check_ic_full_counts_all_pairs(rng):
    grid = make_grid(rng)
    # one item strictly dominates: every other type envies it
    b = np.zeros((2, 2))
    f = np.zeros((2, 2))
    r = np.zeros((2, 2))
    r[0, 0] = 1.0
    viol = fz.check_full(_menu(b, f, r), grid).ic_violations
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


def test_check_full_rejects_descent_along_one_axis(rng):
    # f falls from (0, 0) to (1, 0) but every cross-corner comparison
    # x[i,j] <= max(x[i,n], x[m,j]) <= x[m,n] holds; the pattern search once
    # emitted this f on a 3 x 2 scenario
    grid = make_grid(rng, 3, 2)
    b = np.full((3, 2), 5.0)
    f = np.array([[2.25, 3.0], [0.0, 3.0], [2.25, 3.0]])
    report = fz.check_full(_menu(b, f, fz.minimal_reward_oracle(b, f, grid)), grid)
    assert report.ir_violations == [] and report.ic_violations == []
    assert report.monotonicity_violations == [("f", (0, 0), (1, 0))]
    assert not report.feasible


# -- IC slack ---------------------------------------------------------------

# offsets (p - m, q - n) of the comparable lattice neighbors
_NEIGHBORS = {(0, -1), (-1, 0), (-1, -1), (0, 1), (1, 0), (1, 1)}


def _brute_force_ic(menu, grid, reduced):
    """IC violations from the scalar cross utility one pair at a time; the
    reduced set keeps comparable lattice neighbors plus every incomparable pair."""
    out = []
    cells = list(itertools.product(range(grid.m), range(grid.n)))
    for (m, n), (p, q) in itertools.product(cells, cells):
        if (p, q) == (m, n):
            continue
        dm, dn = p - m, q - n
        if reduced and not ((dm, dn) in _NEIGHBORS or dm * dn < 0):
            continue
        slack = cross_utility(menu, grid, m, n, m, n) - cross_utility(menu, grid, m, n, p, q)
        if slack < -fz.SLACK_TOL:
            out.append((m, n, p, q, slack))
    return out


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_ic_violation_lists_match_brute_force(rng, shape):
    listed = 0
    for _ in range(40):
        grid = make_grid(rng, *shape)
        b, f = monotone_bf(rng, *shape)
        menu = _menu(b, f, rng.uniform(0, 50, shape))
        for got, reduced in ((fz.check_full(menu, grid).ic_violations, False),
                             (fz.check_reduced(menu, grid).ic_violations, True)):
            expect = _brute_force_ic(menu, grid, reduced)
            assert [v[:4] for v in got] == [v[:4] for v in expect]
            assert [v[4] for v in got] == pytest.approx([v[4] for v in expect], rel=1e-12, abs=1e-12)
            listed += len(got)
    assert listed > 0


def test_slack_tensor_layout(rng):
    grid = make_grid(rng, 2, 3)
    b, f = monotone_bf(rng, 2, 3)
    menu = _menu(b, f, rng.uniform(0, 50, (2, 3)))
    own, slack = fz.ic_slack(menu, grid)
    assert np.array_equal(own, np.einsum("mnmn->mn", fz.cross_utility_tensor(menu, grid)))
    assert slack.shape == (2, 3, 2, 3)
    assert slack[1, 0, 0, 2] == own[1, 0] - fz.cross_utility_tensor(menu, grid)[1, 0, 0, 2]
    assert np.all(np.einsum("mnmn->mn", slack) == 0.0)


# -- minimal-reward oracle --------------------------------------------------

# 2 x 2 first, so it draws the same inputs as when it was the only lattice
LATTICES = [(2, 2), (2, 3), (3, 3)]


def test_oracle_output_is_feasible(rng):
    for shape in LATTICES:
        for _ in range(50):
            grid = make_grid(rng, *shape)
            b, f, r = implementable_bf(rng, grid)
            report = fz.check_full(_menu(b, f, r), grid)
            assert report.feasible, (shape, report)


def test_oracle_output_is_componentwise_minimal(rng):
    for shape in LATTICES:
        for _ in range(20):
            grid = make_grid(rng, *shape)
            b, f, r = implementable_bf(rng, grid)
            # decreasing any single entry by a visible amount must break feasibility
            for m in range(grid.m):
                for n in range(grid.n):
                    r_probe = r.copy()
                    r_probe[m, n] -= 1e-6
                    report = fz.check_full(_menu(b, f, r_probe), grid)
                    assert not (
                        not report.ir_violations and not report.ic_violations
                    ), f"{shape} entry ({m},{n}) was not minimal"


def _relax_ic(floor, b, f, grid):
    """Independent least-fixpoint completion: smallest R >= floor meeting IC.

    Gauss-Seidel sweeps; longest paths have at most MN - 1 edges, so 2 MN
    sweeps settle any feasible system."""
    b2, f2 = b**2, f**2
    r = floor.copy()
    for _ in range(2 * grid.m * grid.n):
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
    for shape in LATTICES:
        for _ in range(15):
            grid = make_grid(rng, *shape)
            b, f, r_min = implementable_bf(rng, grid)
            shift = r_min + rng.uniform(0.1, 5.0)
            assert fz.check_full(_menu(b, f, shift), grid).feasible
            assert np.all(r_min <= shift + fz.SLACK_TOL)

            floor = r_min + rng.uniform(0.0, 2.0, size=r_min.shape)
            r_cand = _relax_ic(floor, b, f, grid)
            report = fz.check_full(_menu(b, f, r_cand), grid)
            assert not (report.ir_violations or report.ic_violations)
            assert np.all(r_min <= r_cand + fz.SLACK_TOL)


def test_oracle_detects_positive_cycle():
    # anti-diagonal pair: b jumps with sigma while f jumps with theta, making
    # the two cross constraints between (0,1) and (1,0) unsatisfiable together;
    # the 2 x 3 case repeats the last column
    for n in (2, 3):
        grid = TypeGrid(theta=[50.0, 60.0], sigma=[50.0, 60.0, 70.0][:n], q=np.full((2, n), 0.5 / n))
        b = np.array([[0.0, 10.0, 10.0], [0.1, 10.0, 10.0]])[:, :n]
        f = np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])[:, :n]
        assert fz.check_monotone(_menu(b, f, np.zeros((2, n)))) == []
        with pytest.raises(fz.InfeasibleMenuError):
            fz.minimal_reward_oracle(b, f, grid)
        with pytest.raises(fz.InfeasibleMenuError):
            fz.optimal_rewards(b, f, grid)


def test_oracle_shape_validation(rng):
    grid = make_grid(rng)
    with pytest.raises(ValueError):
        fz.minimal_reward_oracle(np.zeros((3, 2)), np.zeros((2, 2)), grid)
    with pytest.raises(ValueError):
        fz.minimal_rewards(np.zeros((2, 2)), np.zeros((2, 2)), grid)
    with pytest.raises(ValueError):
        fz.minimal_rewards(np.zeros((4, 2, 2)), np.zeros((5, 2, 2)), grid)


def test_batched_oracle_matches_scalar_wrapper(rng):
    # every row of a mixed batch gets the rewards and the verdict it gets alone
    verdicts = set()
    for shape in LATTICES:
        for _ in range(5):
            grid = make_grid(rng, *shape)
            pairs = [monotone_bf(rng, *shape) for _ in range(60)]
            b = np.array([bf[0] for bf in pairs])
            f = np.array([bf[1] for bf in pairs])
            r, feasible = fz.minimal_rewards(b, f, grid)
            assert r.shape == b.shape and feasible.shape == (60,)
            for i in range(60):
                verdicts.add(bool(feasible[i]))
                if feasible[i]:
                    assert np.array_equal(r[i], fz.minimal_reward_oracle(b[i], f[i], grid))
                    assert fz.check_full(_menu(b[i], f[i], r[i]), grid).feasible
                else:
                    with pytest.raises(fz.InfeasibleMenuError):
                        fz.minimal_reward_oracle(b[i], f[i], grid)
    assert verdicts == {True, False}


def test_minimal_rewards_never_below_seller_cost(rng):
    # bit for bit: the solver's bound prices the IR rewards with the same
    # seller_cost call and relies on the relaxation only raising them
    for shape in LATTICES:
        binding = 0
        for _ in range(5):
            grid = make_grid(rng, *shape)
            pairs = [monotone_bf(rng, *shape) for _ in range(60)]
            b = np.array([bf[0] for bf in pairs])
            f = np.array([bf[1] for bf in pairs])
            r, feasible = fz.minimal_rewards(b, f, grid)
            cost = seller_cost(b, f, grid.theta[:, None], grid.sigma)
            assert feasible.any()
            assert np.all(r[feasible] >= cost[feasible]), shape
            binding += int(np.count_nonzero(r[feasible] == cost[feasible]))
        assert binding > 0, shape


def test_pooled_menus_pay_every_type_the_costliest_cost(rng):
    # one (b, f) in every cell: IC makes the rewards equal and IR at the
    # costliest type, (0, 0), sets them to its seller_cost bit for bit
    for shape in LATTICES:
        grid = make_grid(rng, *shape)
        items = np.vstack([rng.uniform([0.0, 0.0], [10.0, 3.0], size=(30, 2)), [10.0, 3.0]])
        b = np.broadcast_to(items[:, 0, None, None], (len(items), *shape))
        f = np.broadcast_to(items[:, 1, None, None], (len(items), *shape))
        r, feasible = fz.minimal_rewards(b, f, grid)
        assert feasible.all(), shape
        cost = seller_cost(items[:, 0], items[:, 1], grid.theta[0], grid.sigma[0])
        assert np.array_equal(r, np.broadcast_to(cost[:, None, None], r.shape)), shape


def _largest_two_cycle_weight(b, f, grid):
    """Per row of a (C, M, N) batch, the largest weight of a 2-cycle i -> j
    -> i in the IC constraint graph over every pair of cells i, j:
    (b_i^2 - b_j^2)(1/theta_i - 1/theta_j) + (f_i^2 - f_j^2)(1/sigma_i - 1/sigma_j)."""
    cells = list(itertools.product(range(grid.m), range(grid.n)))
    return np.max([
        (b[:, m, n] ** 2 - b[:, p, q] ** 2) * (1.0 / grid.theta[m] - 1.0 / grid.theta[p])
        + (f[:, m, n] ** 2 - f[:, p, q] ** 2) * (1.0 / grid.sigma[n] - 1.0 / grid.sigma[q])
        for (m, n), (p, q) in itertools.combinations(cells, 2)
    ], axis=0)


def test_positive_two_cycle_weight_means_infeasible(rng):
    # weak monotonicity: a 2-cycle heavier than SLACK_TOL is a positive
    # cycle, so minimal_rewards must call the row infeasible.  Random rows
    # cover weights far from the tolerance; the built rows hold b constant
    # and put the heaviest 2-cycle, (0, N-1) against (1, 0), at a few
    # SLACK_TOL: f = x on row 0 right of column 0, y below it, with x < y
    for shape in LATTICES:
        for _ in range(5):
            grid = make_grid(rng, *shape)
            pairs = [monotone_bf(rng, *shape) for _ in range(200)]
            b = np.array([bf[0] for bf in pairs])
            f = np.array([bf[1] for bf in pairs])
            heavy = _largest_two_cycle_weight(b, f, grid) > fz.SLACK_TOL
            _, feasible = fz.minimal_rewards(b, f, grid)
            assert heavy.any() and feasible.any(), shape
            assert not feasible[heavy].any(), shape

            k = np.array([1.5, 2.0, 3.0, 5.0, 10.0])
            y = rng.uniform(0.5, 3.0, size=len(k))
            gap = 1.0 / grid.sigma[0] - 1.0 / grid.sigma[-1]
            x = np.sqrt(y**2 - k * fz.SLACK_TOL / gap)
            f = np.repeat(y, shape[0] * shape[1]).reshape(len(k), *shape)
            f[:, 0, 0] = 0.0
            f[:, 0, 1:] = x[:, None]
            b = np.full(f.shape, rng.uniform(0.0, 10.0))
            assert not fz.monotone_descents(f).any()
            weight = _largest_two_cycle_weight(b, f, grid)
            assert np.all((weight > fz.SLACK_TOL) & (weight < 11 * fz.SLACK_TOL)), weight
            _, feasible = fz.minimal_rewards(b, f, grid)
            assert not feasible.any(), (shape, weight)


# -- recurrence vs oracle ---------------------------------------------------

def test_recurrence_rejects_non_monotone(rng):
    grid = make_grid(rng)
    b = np.array([[5.0, 1.0], [2.0, 3.0]])
    f = np.zeros((2, 2))
    with pytest.raises(fz.NonMonotoneError):
        fz.optimal_rewards(b, f, grid)
    # a descent along one axis only, with both cross corners in order
    with pytest.raises(fz.NonMonotoneError):
        fz.optimal_rewards(np.full((2, 2), 10.0), np.array([[3.0, 3.0], [0.0, 3.0]]), grid)


def _inverse_gap_recurrence(b, f, grid):
    """Reference rewards of the neighbour recurrence priced from inverse
    gaps, V_{m,n} >= V_{p,q} + b_{p,q}^2 (1/theta_p - 1/theta_m) +
    f_{p,q}^2 (1/sigma_q - 1/sigma_n), one neighbour at a time in a
    lexicographic Gauss-Seidel sweep; None when it does not settle."""
    inv_t, inv_s = 1.0 / grid.theta, 1.0 / grid.sigma
    v = np.zeros((grid.m, grid.n))
    for _ in range(grid.m * grid.n + 2):
        changed = False
        for m, n in itertools.product(range(grid.m), range(grid.n)):
            bounds = [0.0]
            for dm, dn in itertools.product((-1, 0, 1), repeat=2):
                p, q = m + dm, n + dn
                if (dm, dn) != (0, 0) and 0 <= p < grid.m and 0 <= q < grid.n:
                    bounds.append(v[p, q] + b[p, q] ** 2 * (inv_t[p] - inv_t[m])
                                  + f[p, q] ** 2 * (inv_s[q] - inv_s[n]))
            if max(bounds) > v[m, n] + fz.SLACK_TOL * 1e-3:
                v[m, n] = max(bounds)
                changed = True
        if not changed:
            return v + b**2 / grid.theta[:, None] + f**2 / grid.sigma
    return None


def test_recurrence_matches_inverse_gap_reference(rng):
    # the recurrence prices its bounds from the cross-cost table; the
    # inverse-gap form is the same arithmetic in another order
    for shape in LATTICES:
        verdicts = set()
        for _ in range(300):
            grid = make_grid(rng, *shape)
            b, f = monotone_bf(rng, *shape)
            want = _inverse_gap_recurrence(b, f, grid)
            verdicts.add(want is not None)
            if want is None:
                with pytest.raises(fz.InfeasibleMenuError):
                    fz.optimal_rewards(b, f, grid)
            else:
                assert np.allclose(fz.optimal_rewards(b, f, grid), want, rtol=1e-12, atol=0), shape
        assert verdicts == {True, False}, shape


def test_recurrence_on_one_cell_lattice_pays_the_own_cost():
    # no neighbours: V* is 0 and R* is the one type's seller_cost
    grid = TypeGrid(theta=[40.0], sigma=[70.0], q=np.ones((1, 1)))
    b, f = np.array([[3.0]]), np.array([[2.0]])
    assert np.array_equal(fz.optimal_rewards(b, f, grid), seller_cost(b, f, 40.0, 70.0))


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
