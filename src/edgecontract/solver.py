"""Desk-scale ground-truth contract optimization.

Enumerates monotone (b, f) resource grids at a fixed per-axis resolution,
completes each candidate with the minimal feasible rewards, scores by the
prospect-theory expected utility, and optionally refines the winner with a
derivative-free pattern search.  Minimal rewards are optimal because the
objective is nonincreasing in every reward entry.

Both searches complete and score through one batched route,
:func:`feasibility.minimal_rewards` then :func:`econ.pt_objective` on the
feasible rows: :func:`solve_grid` passes fixed-size chunks of candidates,
:func:`refine_local` one probe at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    pt_objective,
)
from .feasibility import minimal_rewards, monotone_descents

# unused here; perfbench's tracer wraps these names in solver's namespace
from .econ import pt_expected  # noqa: F401
from .feasibility import minimal_reward_oracle, optimal_rewards  # noqa: F401

__all__ = ["SearchSpec", "SolveResult", "solve_grid", "refine_local", "monotone_grids"]

# candidates per array pass of solve_grid; bounds the memory of a pass: the
# relaxation's (MN, MN, CHUNK) float weight tensor stays within 0.5 MB up to
# a 3 x 3 lattice
CHUNK = 768


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
    evaluations: int


def monotone_grids(levels: np.ndarray, m: int, n: int) -> np.ndarray:
    """All (m, n) matrices with entries from ``levels`` that are
    nondecreasing along both axes, as a (K, m, n) array in lexicographic
    row-major order of the level indices."""
    levels = np.asarray(levels, dtype=float)
    grids = np.empty((1, 0))  # every prefix of the row-major cells filled so far
    for idx in range(m * n):
        i, j = divmod(idx, n)
        lo = np.full(len(grids), -np.inf)
        if i > 0:
            lo = np.maximum(lo, grids[:, idx - n])
        if j > 0:
            lo = np.maximum(lo, grids[:, idx - 1])
        # nonzero runs prefix-major, level-minor, which keeps the order
        prefix, level = np.nonzero(levels >= lo[:, None])
        grids = np.column_stack([grids[prefix], levels[level]])
    return grids.reshape(-1, m, n)


def _complete_and_score(b, f, grid, ch, hmd, sens, pt):
    """Minimal rewards and PT objectives of a (C, M, N) batch of (b, f) grids.

    Returns ``(r, feasible, obj)``.  Only feasible rows are scored; an
    infeasible row (positive IC cycle, not implementable) or a NaN objective
    scores -inf, so it never wins a comparison.
    """
    r, feasible = minimal_rewards(b, f, grid)
    obj = np.full(len(b), -np.inf)
    obj[feasible] = pt_objective(b[feasible], f[feasible], r[feasible], grid, ch, hmd, sens, pt)
    obj[np.isnan(obj)] = -np.inf  # np.argmax would pick a NaN
    return r, feasible, obj


def solve_grid(
    spec: SearchSpec,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
) -> SolveResult:
    """Exhaustive search over monotone (b, f) grid assignments.

    Candidates run b-major, f-minor; the first one with the largest objective
    wins.  Candidates with a positive IC cycle are not implementable and are
    skipped, and a NaN objective never wins.
    """
    b_levels = np.linspace(spec.b_range[0], spec.b_range[1], spec.grid_points)
    f_levels = np.linspace(spec.f_range[0], spec.f_range[1], spec.grid_points)
    b_cands = monotone_grids(b_levels, grid.m, grid.n)
    f_cands = monotone_grids(f_levels, grid.m, grid.n)
    n_f = len(f_cands)
    total = len(b_cands) * n_f

    best_k, best_obj, best_r = -1, -np.inf, None
    for start in range(0, total, CHUNK):
        k = np.arange(start, min(start + CHUNK, total))
        r, _, obj = _complete_and_score(
            b_cands[k // n_f], f_cands[k % n_f], grid, ch, hmd, sens, pt
        )
        i = int(np.argmax(obj))
        if obj[i] > best_obj:
            best_k, best_obj, best_r = start + i, float(obj[i]), r[i]
    if best_k < 0:
        raise FloatingPointError("no monotone candidate has a comparable PT objective")
    menu = ContractMenu(b=b_cands[best_k // n_f], f=f_cands[best_k % n_f], r=best_r)
    return SolveResult(menu=menu, objective=best_obj, evaluations=total)


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
    # b and f stacked on axis 0, with their box and step per axis
    x = np.stack([result.menu.b, result.menu.f])
    lo = np.array([spec.b_range[0], spec.f_range[0]])[:, None, None]
    hi = np.array([spec.b_range[1], spec.f_range[1]])[:, None, None]
    step = (hi - lo).ravel() / max(spec.grid_points - 1, 1)
    min_step = 1e-6 * np.max(hi - lo)
    best_obj, best_r = result.objective, result.menu.r
    evals = result.evaluations

    for _ in range(spec.refine_iters):
        improved = False
        for axis, m, n, sgn in itertools.product(
            range(2), range(grid.m), range(grid.n), (+1.0, -1.0)
        ):
            trial = x.copy()
            trial[axis, m, n] += sgn * step[axis]
            if np.any(trial < lo) or np.any(trial > hi):
                continue
            # minimal_rewards does not check monotonicity itself
            if monotone_descents(trial).any():
                continue
            r, feasible, obj = _complete_and_score(
                trial[:1], trial[1:], grid, ch, hmd, sens, pt
            )
            evals += int(feasible[0])
            if obj[0] > best_obj:
                x, best_obj, best_r = trial, float(obj[0]), r[0]
                improved = True
        if not improved:
            step *= 0.5
            if np.max(step) < min_step:
                break

    menu = ContractMenu(b=x[0], f=x[1], r=best_r)
    return SolveResult(menu=menu, objective=best_obj, evaluations=evals)
