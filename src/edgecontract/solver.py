"""Desk-scale ground-truth contract optimization.

Enumerates monotone (b, f) resource grids at a fixed per-axis resolution,
completes each candidate with the minimal feasible rewards, scores by the
prospect-theory expected utility, and optionally refines the winner with a
derivative-free pattern search.  Minimal rewards are optimal because the
objective is nonincreasing in every reward entry.

Both searches are exact: each returns, bit for bit, what completing and
scoring every candidate (every probe) one at a time returns, but completes
only the ones that can change the answer.  Both complete and score through
one batched route, :func:`feasibility.minimal_rewards` then, on the
feasible rows, :func:`econ.pt_score` of ``value - r``, where ``value`` is
the buyer's R-free value ``alpha*immersion - beta*latency``
(:func:`econ.buyer_value`).  A grid candidate's b and f take only
``grid_points`` levels per cell, so :func:`solve_grid` builds the (b level,
f level, M, N) tables of :func:`econ.level_tables` once per scenario and
reads every candidate's values, and every bound, from them; the pattern
search's probes are off the levels and get theirs from ``buyer_value``.

* :func:`solve_grid` is a best-first branch and bound (Land & Doig 1960)
  over b-grids.  Minimal rewards never fall below the IR bounds
  :func:`econ.seller_cost`, ``pt_value`` is nondecreasing and the weights
  are nonnegative, so scoring a b-grid at the IR rewards with, cell by cell,
  its best f level bounds every candidate that shares the b-grid; the
  tables' utilities at the IR rewards, maximised over f levels, give every
  b-grid's bound in one gather and one :func:`econ.pt_score`.  b-grids
  are visited in descending bound order until a bound falls strictly below
  the incumbent; ties go to the lower b-major, f-minor index.  The first
  pass completes the best-bound b-grid alone, so that every later pass, of
  at most :data:`CHUNK` candidates, is cut by an incumbent.
* :func:`refine_local` is a Hooke & Jeeves (1961) coordinate search.  Its
  probe order does not depend on the objective values it sees until a probe
  improves, so from each point it builds, in closed form, the whole probe
  sequence the sequential loop would run if nothing improved, scores it in
  one batch, and accepts the first improving probe in sequence order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .econ import (
    ChannelParams,
    ContractMenu,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    buyer_value,
    level_tables,
    pt_score,
)
from .feasibility import minimal_rewards, monotone_descents

# unused here; perfbench's tracer wraps these names in solver's namespace
from .econ import pt_expected  # noqa: F401
from .feasibility import minimal_reward_oracle, optimal_rewards  # noqa: F401

# candidates per array pass of solve_grid after the first, which is one
# b-grid's f-grids (at most CHUNK of them); bounds the memory of a pass: the
# relaxation's (MN, MN, CHUNK) float weight tensor stays within 0.5 MB up to
# a 3 x 3 lattice
CHUNK = 768

# the most monotone grids per axis a configured search may enumerate; admits
# a 3 x 3 lattice at 9 points (259 545 grids) and 4 x 4 at 5 (232 848)
MAX_GRIDS = 10**6

# refine_local stops halving its step below this fraction of the box's widest
# side; its steps keep the box's proportions, so no probe moves b or f by
# less than this fraction of its own range
MIN_STEP = 1e-6
# refine_local's steps start at most the box's widest side, so a step stays
# at or above MIN_STEP of it for at most this many sweeps: the current one,
# the next when the search resumes mid-sweep, and -log2(MIN_STEP) halvings
_MAX_SWEEPS = 2 + math.ceil(-math.log2(MIN_STEP))


@dataclass(frozen=True)
class SearchSpec:
    """Search box and resolution of the exact search.

    :func:`solve_grid` searches the monotone grids over ``grid_points``
    evenly spaced levels of each range, b-grids in descending bound order;
    :func:`refine_local` starts its pattern search at the level spacing and
    runs at most ``refine_iters`` sweeps, halving the step after each sweep
    that does not improve.
    """

    b_range: tuple[float, float] = (0.0, 10.0)
    f_range: tuple[float, float] = (0.0, 3.0)
    grid_points: int = 5
    refine_iters: int = 40

    def __post_init__(self):
        for axis, (lo, hi) in (("b", self.b_range), ("f", self.f_range)):
            if not 0 <= lo < hi:
                raise ValueError(f"need 0 <= {axis}_min < {axis}_max")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")


@dataclass
class SolveResult:
    """A menu, its PT objective and the search work behind it.

    ``evaluations`` counts, for :func:`solve_grid`, the candidates the search
    covers, each either scored or bounded out: every monotone (b, f) pair.
    :func:`refine_local` adds the feasible probes it scores.
    """

    menu: ContractMenu
    objective: float
    evaluations: int


def monotone_grids(points: int, m: int, n: int) -> np.ndarray:
    """All (m, n) matrices of level indices ``0 .. points - 1`` that are
    nondecreasing along both axes, as a (K, m, n) array in lexicographic
    row-major order; indexing increasing levels with them gives the
    monotone grids over those levels.

    Each grid is a chain of m nondecreasing rows, each row at or above the
    one before it entry by entry, so the enumeration takes m - 1 array
    passes over the rows rather than one per cell.  Raises ``ValueError``,
    before enumerating, when :func:`check_grid_count` does.
    """
    check_grid_count(points, m, n)
    # the nondecreasing rows, in lexicographic order
    rows = np.array(list(itertools.combinations_with_replacement(range(points), n)))
    chains = np.arange(len(rows))[:, None]  # row indices of every grid's rows so far
    if m > 1:
        below = np.all(rows[:, None] <= rows, axis=-1)  # below[a, c]: row c may follow row a
        for _ in range(m - 1):
            # nonzero runs chain-major, row-minor, which keeps the order
            chain, row = np.nonzero(below[chains[:, -1]])
            chains = np.column_stack([chains[chain], row])
    return rows[chains]


def monotone_grid_count(points: int, m: int, n: int) -> int:
    """``len(monotone_grids(points, m, n))`` without enumerating: MacMahon's
    count of plane partitions in an m x n x (points - 1) box, the product
    over cells (i, j), from 1, of (i + j + points - 2) / (i + j - 1)."""
    cells = list(itertools.product(range(1, m + 1), range(1, n + 1)))
    return math.prod(i + j + points - 2 for i, j in cells) // math.prod(i + j - 1 for i, j in cells)


def check_grid_count(points: int, m: int, n: int) -> None:
    """Raise ``ValueError`` when ``points`` levels give more than
    :data:`MAX_GRIDS` monotone grids per axis on an m x n lattice."""
    if monotone_grid_count(points, m, n) > MAX_GRIDS:
        raise ValueError(f"grid_points = {points} gives more than {MAX_GRIDS} "
                         f"monotone grids per axis on the {m}x{n} lattice")


def _complete_and_score(b, f, value, grid, pt):
    """Minimal rewards and PT objectives of a (C, M, N) batch of (b, f) grids
    whose buyer values (:func:`econ.buyer_value`) are ``value``.

    Returns ``(r, feasible, obj)``.  Only feasible rows are scored; an
    infeasible row (positive IC cycle, not implementable) or a NaN objective
    scores -inf, so it never wins a comparison.
    """
    r, feasible = minimal_rewards(b, f, grid)
    obj = np.full(len(b), -np.inf)
    obj[feasible] = pt_score(value[feasible] - r[feasible], grid, pt)
    obj[np.isnan(obj)] = -np.inf  # np.argmax would pick a NaN
    return r, feasible, obj


def _b_grid_bounds(utility, b_idx, grid, pt):
    """An upper bound on the PT objective of every candidate whose b-grid is
    ``b_idx[k]`` in level indices, one per k; a NaN bound never prunes.

    ``utility`` is ``value - ir`` of the levels' :func:`econ.level_tables`.
    Each b-grid is scored at the IR rewards with, cell by cell, the f level
    whose utility is largest there.  The IR rewards are the
    :func:`econ.seller_cost` values :func:`feasibility.minimal_rewards`
    starts from, bit for bit, and that function only raises them, so the
    bound holds in floating point too.
    """
    best = utility.max(axis=1)  # (b level, M, N)
    cells = np.arange(grid.m)[:, None], np.arange(grid.n)
    return pt_score(best[(b_idx, *cells)], grid, pt)


def solve_grid(
    spec: SearchSpec,
    grid: TypeGrid,
    ch: ChannelParams,
    hmd: HMDParams,
    sens: SensitivityParams,
    pt: PTParams,
) -> SolveResult:
    """Exact (bounded) search over monotone (b, f) grid assignments.

    Returns the candidate with the largest objective, the first in b-major,
    f-minor order among equals.  Candidates with a positive IC cycle are not
    implementable and are skipped, and a NaN objective never wins.

    b-grids are visited in descending order of their bound (equal bounds in
    index order), each with all its f-grids; the search stops at the first
    b-grid whose bound is strictly below the best objective found.  The
    first pass is the best-bound b-grid's f-grids alone (at most
    :data:`CHUNK`), so that the passes after it, of at most :data:`CHUNK`
    candidates each, complete only b-grids still in play against a real
    incumbent.  ``evaluations`` is every candidate, scored or bounded out.
    Raises ``ValueError``, before enumerating, when ``grid_points`` gives
    more than :data:`MAX_GRIDS` monotone grids on the lattice.
    """
    b_levels = np.linspace(spec.b_range[0], spec.b_range[1], spec.grid_points)
    f_levels = np.linspace(spec.f_range[0], spec.f_range[1], spec.grid_points)
    # both level sets are increasing, so one enumeration of level indices
    # gives the b-grids and the f-grids alike
    idx = monotone_grids(spec.grid_points, grid.m, grid.n)
    cells = np.arange(grid.m)[:, None], np.arange(grid.n)
    n_f = len(idx)
    total = n_f * n_f

    value, ir = level_tables(b_levels, f_levels, grid, ch, hmd, sens)
    bound = _b_grid_bounds(value - ir, idx, grid, pt)
    bound = np.where(np.isnan(bound), np.inf, bound)
    visit = np.argsort(-bound, kind="stable")
    bound = bound[visit]

    best_k, best_obj, best_r = -1, -np.inf, None
    start, stop = 0, min(n_f, CHUNK)  # the first pass: the best-bound b-grid
    while True:
        # the b-grids still in play are a prefix of the visit order
        live = int(np.count_nonzero(bound >= best_obj)) * n_f
        if start >= live:
            break
        j = np.arange(start, min(stop, live))
        k = visit[j // n_f] * n_f + j % n_f
        kb, kf = idx[k // n_f], idx[k % n_f]
        r, _, obj = _complete_and_score(
            b_levels[kb], f_levels[kf], value[(kb, kf, *cells)], grid, pt
        )
        top = obj.max()
        i = int(np.argmin(np.where(obj == top, k, total)))  # lowest index among the best
        if top > best_obj or (top == best_obj and k[i] < best_k):
            best_k, best_obj, best_r = int(k[i]), float(top), r[i]
        start += len(j)
        stop = start + CHUNK
    if best_k < 0:
        raise FloatingPointError("no monotone candidate has a comparable PT objective")
    menu = ContractMenu(b=b_levels[idx[best_k // n_f]], f=f_levels[idx[best_k % n_f]], r=best_r)
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

    Each sweep probes a +/- step move on every b entry, then every f entry,
    accepts each move that improves the objective while keeping
    monotonicity and the search box, and after a sweep without a move halves
    the step, until it falls below :data:`MIN_STEP` of the box or ``refine_iters``
    sweeps have run.

    From the current point, the probes that loop would run if nothing
    improved (the rest of this sweep, then every later sweep at halved
    steps) are filtered and scored in one batch; the first improving one in
    sequence order is accepted, and the search resumes just after it.  That
    is one batch per accepted move, plus one.  Each batch's plan is built in
    closed form, with no loop over sweeps: a sweep ``h`` halvings on probes
    at ``step * 2**-h``, which is exact, and the probes are one sweep's move
    table repeated.  ``evaluations`` grows by the feasible probes the
    sequential loop would have scored.
    """
    # b and f stacked on axis 0, with their box and step per axis
    x = np.stack([result.menu.b, result.menu.f])
    lo = np.array([spec.b_range[0], spec.f_range[0]])[:, None, None]
    hi = np.array([spec.b_range[1], spec.f_range[1]])[:, None, None]
    step = (hi - lo).ravel() / (spec.grid_points - 1)
    min_step = MIN_STEP * np.max(hi - lo)
    best_obj, best_r = result.objective, result.menu.r
    evals = result.evaluations

    # the moves of one sweep in probe order, one array per coordinate
    axis, m, n, sgn = (
        np.array(c)
        for c in zip(*itertools.product(range(2), range(grid.m), range(grid.n), (+1.0, -1.0)))
    )
    n_moves = len(sgn)

    sweep, first = 0, 0
    while sweep < spec.refine_iters:
        # every sweep left if no probe improves: the current one keeps its
        # step, and so does the next if the current one has moved, that is
        # if the search resumes mid-sweep; each later one halves it while it
        # stays at or above min_step, which no row past _MAX_SWEEPS does
        kept = int(first > 0)
        h = np.maximum(np.arange(min(spec.refine_iters - sweep, _MAX_SWEEPS)) - kept, 0)
        steps = np.ldexp(step, -h[:, None])  # (sweeps, 2), exact
        steps = steps[np.max(steps, axis=1) >= min_step]
        which = np.repeat(np.arange(len(steps)), n_moves)[first:]
        move = np.tile(np.arange(n_moves), len(steps))[first:]
        delta = sgn[move] * steps[which, axis[move]]
        trials = np.repeat(x[None], len(move), axis=0)
        trials[np.arange(len(move)), axis[move], m[move], n[move]] += delta
        # minimal_rewards does not check monotonicity itself
        keep = ~(
            np.any((trials < lo) | (trials > hi), axis=(1, 2, 3))
            | monotone_descents(trials).any(axis=(1, 2, 3, 4))
        )
        trials, which, move = trials[keep], which[keep], move[keep]
        value = buyer_value(trials[:, 0], trials[:, 1], ch, hmd, sens)
        r, feasible, obj = _complete_and_score(trials[:, 0], trials[:, 1], value, grid, pt)
        better = np.flatnonzero(obj > best_obj)
        if not len(better):
            evals += int(np.count_nonzero(feasible))
            break
        q = better[0]
        evals += int(np.count_nonzero(feasible[: q + 1]))
        x, best_obj, best_r = trials[q], float(obj[q]), r[q]
        sweep, step, first = sweep + int(which[q]), steps[which[q]], move[q] + 1

    menu = ContractMenu(b=x[0], f=x[1], r=best_r)
    return SolveResult(menu=menu, objective=best_obj, evaluations=evals)
