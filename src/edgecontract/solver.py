"""Desk-scale ground-truth contract optimization.

Enumerates monotone (b, f) resource grids at a fixed per-axis resolution,
completes each candidate with the minimal feasible rewards, scores by the
prospect-theory expected utility, and optionally refines the winner with a
derivative-free pattern search.  Minimal rewards are optimal because the
objective is nonincreasing in every reward entry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .feasibility import (
    InfeasibleMenuError,
    NonMonotoneError,
    check_monotone,
    minimal_reward_oracle,
    optimal_rewards,
)

__all__ = ["SearchSpec", "SolveResult", "solve_grid", "refine_local", "monotone_grids"]


@dataclass(frozen=True)
class SearchSpec:
    """Search box and resolution for the exhaustive monotone enumeration."""

    b_range: tuple[float, float] = (0.0, 10.0)
    f_range: tuple[float, float] = (0.0, 3.0)
    grid_points: int = 5
    refine_iters: int = 40

    def __post_init__(self):
        if not (0 <= self.b_range[0] < self.b_range[1]):
            raise ValueError("need 0 <= b_min < b_max")
        if not (0 <= self.f_range[0] < self.f_range[1]):
            raise ValueError("need 0 <= f_min < f_max")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")


@dataclass
class SolveResult:
    menu: ContractMenu
    objective: float
    feasible: bool
    evaluations: int

    def csv_rows(self, grid: TypeGrid, ch, hmd, sens) -> list[str]:
        """One row per type pair plus a summary row."""
        from .econ import utility_matrix
        from .feasibility import own_utilities

        v = own_utilities(self.menu, grid)
        u = utility_matrix(self.menu, grid, ch, hmd, sens)
        rows = ["m,n,b,f,r,v,u"]
        for m in range(grid.m):
            for n in range(grid.n):
                rows.append(
                    f"{m},{n},{self.menu.b[m, n]!r},{self.menu.f[m, n]!r},"
                    f"{self.menu.r[m, n]!r},{v[m, n]!r},{u[m, n]!r}"
                )
        rows.append(f"objective,,,,,{self.objective!r},{self.evaluations}")
        return rows


def monotone_grids(levels: np.ndarray, m: int, n: int):
    """Yield all (m, n) matrices with entries from ``levels`` that are
    nondecreasing along both axes (row-major backtracking)."""
    levels = np.asarray(levels, dtype=float)
    grid = np.empty((m, n))

    def rec(idx: int):
        if idx == m * n:
            yield grid.copy()
            return
        i, j = divmod(idx, n)
        lo = max(
            grid[i - 1, j] if i > 0 else -np.inf,
            grid[i, j - 1] if j > 0 else -np.inf,
        )
        for val in levels:
            if val >= lo:
                grid[i, j] = val
                yield from rec(idx + 1)

    yield from rec(0)


def _complete_and_score(
    b_grid: np.ndarray,
    f_grid: np.ndarray,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
) -> tuple[ContractMenu, float] | None:
    # the neighbor recurrence is exact only on 2 x 2 lattices; candidates
    # with a positive IC cycle are simply not implementable and are skipped
    try:
        if (grid.m, grid.n) == (2, 2):
            try:
                r = optimal_rewards(b_grid, f_grid, grid)
            except NonMonotoneError:
                r = minimal_reward_oracle(b_grid, f_grid, grid)
        else:
            r = minimal_reward_oracle(b_grid, f_grid, grid)
    except InfeasibleMenuError:
        return None
    menu = ContractMenu(b=b_grid, f=f_grid, r=r)
    return menu, pt_expected(menu, grid, ch, hmd, sens, pt)


def solve_grid(
    spec: SearchSpec,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
) -> SolveResult:
    """Exhaustive search over monotone (b, f) grid assignments."""
    b_levels = np.linspace(spec.b_range[0], spec.b_range[1], spec.grid_points)
    f_levels = np.linspace(spec.f_range[0], spec.f_range[1], spec.grid_points)

    best_menu = None
    best_obj = -np.inf
    evals = 0
    b_candidates = list(monotone_grids(b_levels, grid.m, grid.n))
    f_candidates = list(monotone_grids(f_levels, grid.m, grid.n))
    for b_grid in b_candidates:
        for f_grid in f_candidates:
            scored = _complete_and_score(b_grid, f_grid, grid, ch, hmd, sens, pt)
            evals += 1
            if scored is None:
                continue
            menu, obj = scored
            if obj > best_obj:
                best_obj = obj
                best_menu = menu
    assert best_menu is not None, "monotone candidate set cannot be empty"
    return SolveResult(menu=best_menu, objective=best_obj, feasible=True, evaluations=evals)


def refine_local(
    result: SolveResult,
    spec: SearchSpec,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
) -> SolveResult:
    """Coordinate pattern search around a feasible solution.

    Probes +/- step moves on every b and f entry, keeps moves that improve
    the objective while preserving monotonicity and the search box, and
    halves the step until convergence (1e-6 relative) or the iteration cap.
    """
    if not result.feasible:
        raise ValueError("refinement requires a feasible starting point")

    b = result.menu.b.copy()
    f = result.menu.f.copy()
    best_obj = result.objective
    evals = result.evaluations
    step_b = (spec.b_range[1] - spec.b_range[0]) / max(spec.grid_points - 1, 1)
    step_f = (spec.f_range[1] - spec.f_range[0]) / max(spec.grid_points - 1, 1)

    def try_move(b_new, f_new):
        nonlocal evals
        if np.any(b_new < spec.b_range[0]) or np.any(b_new > spec.b_range[1]):
            return None
        if np.any(f_new < spec.f_range[0]) or np.any(f_new > spec.f_range[1]):
            return None
        # minimal_reward_oracle does not check monotonicity itself
        if check_monotone(ContractMenu(b=b_new, f=f_new, r=np.zeros_like(b_new))):
            return None
        try:
            if (grid.m, grid.n) == (2, 2):
                r = optimal_rewards(b_new, f_new, grid)
            else:
                r = minimal_reward_oracle(b_new, f_new, grid)
        except InfeasibleMenuError:
            return None
        menu = ContractMenu(b=b_new.copy(), f=f_new.copy(), r=r)
        evals += 1
        return menu, pt_expected(menu, grid, ch, hmd, sens, pt)

    best_menu = result.menu
    for _ in range(spec.refine_iters):
        improved = False
        for arr, step in ((b, step_b), (f, step_f)):
            for m in range(grid.m):
                for n in range(grid.n):
                    for sgn in (+1.0, -1.0):
                        trial = arr.copy()
                        trial[m, n] += sgn * step
                        cand = (
                            try_move(trial, f) if arr is b else try_move(b, trial)
                        )
                        if cand is not None and cand[1] > best_obj:
                            best_menu, best_obj = cand
                            arr[m, n] = trial[m, n]
                            improved = True
        if not improved:
            step_b *= 0.5
            step_f *= 0.5
            if max(step_b, step_f) < 1e-6 * max(
                spec.b_range[1] - spec.b_range[0], spec.f_range[1] - spec.f_range[0]
            ):
                break

    return SolveResult(
        menu=best_menu, objective=best_obj, feasible=True, evaluations=evals
    )
