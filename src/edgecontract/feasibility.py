"""IR/IC feasibility checking and minimal-reward recovery for contract menus.

A menu is feasible when it is IR, IC and monotone.  A seller's utility
from an item is its reward minus :func:`econ.seller_cost`, the one copy of
``b^2/theta + f^2/sigma``.  Each rule is stated in one place:

* :func:`_cross_cost` is the one cross-cost table: c_{m,n}(p, q), what type
  (m, n) pays for item (p, q), as one :func:`econ.seller_cost` broadcast.
  Its diagonal is each type's own cost, the IR term.  The slack tensor, the
  relaxation's IR start and IC weights and the recurrence's bounds all read
  it.
* :func:`_lattice_pairs` is the one neighbour definition: type pairs one
  step apart along either axis or both.  :func:`check_reduced` keeps the
  comparable ones, and the recurrence relaxes over all of them.
* :func:`monotone_descents` is the one monotonicity definition: a resource
  grid is monotone when it is nondecreasing along both type axes, within
  :data:`SLACK_TOL`.  The checkers, the precondition of
  :func:`optimal_rewards` and the solver's refinement all go through it.
* :func:`ic_slack` is the one computation of IR and IC slack (own-item
  utilities and the (M, N, M, N) slack tensor).  :func:`check_full` and
  :func:`check_reduced` list violations from one call of it, each passing
  a cell mask for IR and a pair mask for IC; the diffusion reward sums it.

:func:`minimal_rewards` gives the minimal feasible rewards on every lattice,
for a whole batch of candidate resource grids at once: the IR/IC constraints
are difference constraints on R, so the least solution is a longest-path
fixpoint over the complete constraint graph (CLRS §24.4), found by one Jacobi
relaxation over all candidates.  :func:`minimal_reward_oracle` is its batch
of one, which raises :class:`InfeasibleMenuError` instead of returning a
verdict.  The solver's grid search completes its candidates in batches, and
its refinement completes one probe at a time.

:func:`optimal_rewards` — a Gauss-Seidel recurrence over lattice
neighbours, valid for monotone resource grids — is kept as the independent
reference: on 2 x 2 lattices (every cell pair adjacent) the two routes must
agree, and tests and ``verify`` enforce this.  On larger lattices the
neighbour recurrence can under-estimate when a non-adjacent constraint
binds.

Note that per-axis monotonicity does not guarantee implementability: an
anti-diagonal type pair (higher theta / lower sigma against the reverse) can
induce a positive cycle in the reward difference constraints.  Both routes
raise :class:`InfeasibleMenuError` in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .econ import ContractMenu, TypeGrid, seller_cost

# doubles-scale arithmetic on utilities of magnitude <= 1e3
SLACK_TOL = 1e-9
# a relaxation round raises a bound only when it gains more than this
_RELAX_TOL = SLACK_TOL * 1e-3


class InfeasibleMenuError(ValueError):
    """Raised when the IR/IC difference constraints admit no finite rewards."""


class NonMonotoneError(ValueError):
    """Raised when a resource grid violates the monotonicity precondition."""


@dataclass
class FeasibilityReport:
    """Violation listing for one menu.  Empty lists <=> feasible."""

    ir_violations: list[tuple[int, int, float]] = field(default_factory=list)
    ic_violations: list[tuple[int, int, int, int, float]] = field(default_factory=list)
    monotonicity_violations: list[tuple] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not (self.ir_violations or self.ic_violations or self.monotonicity_violations)


def _cross_cost(b, f, grid: TypeGrid) -> np.ndarray:
    """c_{m,n}(p, q), the :func:`econ.seller_cost` type (m, n) pays for the
    item (b, f) of cell (p, q), shaped (M, N, *b.shape)."""
    return seller_cost(b, f, grid.theta[:, None, None, None], grid.sigma[:, None, None])


def _lattice_pairs(m_dim: int, n_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Over every ordered type pair [m, n, p, q]: the (M, N, M, N) mask of
    lattice neighbours, one step apart along either axis or both, and the
    offset product (p - m)(q - n), negative exactly for incomparable types."""
    dm = np.arange(m_dim)[None, None, :, None] - np.arange(m_dim)[:, None, None, None]
    dn = np.arange(n_dim)[None, None, None, :] - np.arange(n_dim)[None, :, None, None]
    return np.maximum(np.abs(dm), np.abs(dn)) == 1, dm * dn


def cross_utility_tensor(menu: ContractMenu, grid: TypeGrid) -> np.ndarray:
    """All V_{m,n}^{p,q} as a (M, N, M, N) tensor indexed [m, n, p, q]."""
    menu.check_dims(grid)
    return menu.r - _cross_cost(menu.b, menu.f, grid)


def ic_slack(menu: ContractMenu, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Own-item utilities (M, N) and the IC slack tensor (M, N, M, N).

    Entry [m, n, p, q] is V^{own}_{m,n} - V^{p,q}_{m,n}; a negative entry is
    an IC violation.  The diagonal (m, n) == (p, q) is exactly 0.0.
    """
    v = cross_utility_tensor(menu, grid)
    own = np.einsum("mnmn->mn", v)
    return own, own[:, :, None, None] - v


def monotone_descents(x) -> np.ndarray:
    """Where an (..., M, N) stack of grids falls between adjacent cells by more
    than SLACK_TOL, as an (..., M, N, 2) bool mask.

    Entry [..., i, j, 0] flags x[i+1, j] < x[i, j] and [..., i, j, 1] flags
    x[i, j+1] < x[i, j]; the last row and column have no such step and read
    False.  A grid is monotone when its slice of the mask is all False.
    """
    x = np.asarray(x, dtype=float)
    descents = np.zeros(x.shape + (2,), dtype=bool)
    descents[..., :-1, :, 0] = np.diff(x, axis=-2) < -SLACK_TOL
    descents[..., :, :-1, 1] = np.diff(x, axis=-1) < -SLACK_TOL
    return descents


def check_monotone(menu: ContractMenu) -> list[tuple]:
    """(field, (i, j), (m, n)) for every adjacent step of the menu's b and f
    grids that decreases, (m, n) being (i+1, j) or (i, j+1)."""
    descents = np.argwhere(monotone_descents(np.stack([menu.b, menu.f])))
    return [("bf"[k], (i, j), (i + 1 - axis, j + axis)) for k, i, j, axis in descents.tolist()]


def _report(menu: ContractMenu, grid: TypeGrid, cells, pairs) -> FeasibilityReport:
    """IR rows for the cells in ``cells`` (broadcast against (M, N)) and IC
    rows for the type pairs in ``pairs`` (broadcast against (M, N, M, N)),
    both from one :func:`ic_slack`, plus every monotonicity violation."""
    own, slack = ic_slack(menu, grid)
    return FeasibilityReport(
        ir_violations=[
            (m, n, float(own[m, n]))
            for m, n in np.argwhere(cells & (own < -SLACK_TOL)).tolist()
        ],
        # the diagonal slack is exactly 0, so own items never count as violations
        ic_violations=[
            (m, n, p, q, float(slack[m, n, p, q]))
            for m, n, p, q in np.argwhere(pairs & (slack < -SLACK_TOL)).tolist()
        ],
        monotonicity_violations=check_monotone(menu),
    )


def check_full(menu: ContractMenu, grid: TypeGrid) -> FeasibilityReport:
    """Full constraint set: every IR, every IC pair, and resource monotonicity."""
    return _report(menu, grid, cells=True, pairs=True)


def check_reduced(menu: ContractMenu, grid: TypeGrid) -> FeasibilityReport:
    """Reduced constraint set equivalent to the full one on monotone menus.

    IR is checked only at the lowest type; IC between comparable types
    (both indices ordered the same way) is checked only against lattice
    neighbors, since longer comparable constraints follow by chaining the
    local ones when resources are monotone.  IC between *incomparable*
    types — one index higher, the other lower — is kept in full: those
    pairs are not ordered by the lattice and no local constraint implies
    them, so dropping any of them loses violations.
    """
    lowest = np.zeros(menu.shape, dtype=bool)
    lowest[0, 0] = True
    neighbours, order = _lattice_pairs(*menu.shape)
    return _report(menu, grid, cells=lowest, pairs=(neighbours & (order >= 0)) | (order < 0))


def optimal_rewards(b_grid, f_grid, grid: TypeGrid) -> np.ndarray:
    """Minimal feasible rewards R* = V* + c_{m,n}(m, n) for monotone resource
    grids, from the recurrence over lattice neighbours.

    V at the lowest type is pinned to zero (binding IR) and every other cell
    takes the largest local IC lower bound implied by its lattice neighbours,

        V_{m,n} >= V_{p,q} + c_{p,q}(p, q) - c_{m,n}(p, q),

    swept in lexicographic order (Gauss-Seidel) until stable.  The chain
    through the downward diagonal reproduces the closed-form utility
    recurrence; the remaining adjacent cells must be kept because an
    anti-diagonal neighbour with large bandwidth and small frequency can
    bind.  On 2 x 2 lattices all cells are mutually adjacent, so this
    fixpoint equals the full longest-path solution of
    :func:`minimal_reward_oracle`.  On larger lattices a non-adjacent
    constraint can bind and the result is a lower bound; use the oracle
    there.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    f_grid = np.asarray(f_grid, dtype=float)
    if b_grid.shape != (grid.m, grid.n) or f_grid.shape != (grid.m, grid.n):
        raise ValueError("resource grids must match the type grid shape")
    if monotone_descents(np.stack([b_grid, f_grid])).any():
        raise NonMonotoneError("resource grids are not nondecreasing along both axes")

    cost = _cross_cost(b_grid, f_grid, grid)
    own = np.einsum("mnmn->mn", cost)
    gain = own - cost  # V_{m,n} >= V_{p,q} + gain[m, n, p, q]
    neighbours, _ = _lattice_pairs(grid.m, grid.n)
    v = np.zeros((grid.m, grid.n))
    for _ in range(grid.m * grid.n + 2):
        changed = False
        for m, n in np.ndindex(grid.m, grid.n):
            best = np.max(v + gain[m, n], where=neighbours[m, n], initial=0.0)
            if best > v[m, n] + _RELAX_TOL:
                v[m, n] = best
                changed = True
        if not changed:
            return v + own
    # monotonicity alone does not rule out positive anti-diagonal cycles
    raise InfeasibleMenuError("positive cycle in IC difference constraints")


def minimal_rewards(b, f, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise-minimal rewards for a batch of (C, M, N) resource grids.

    With c_{m,n}(p, q) the :func:`econ.seller_cost` type (m, n) pays for
    item (p, q), the IC constraints are difference constraints on R,

        R_{m,n} >= R_{p,q} + c_{m,n}(m, n) - c_{m,n}(p, q),

    so, starting from the IR lower bounds R_{m,n} >= c_{m,n}(m, n), Jacobi
    relaxation over the complete constraint graph converges to the least
    fixpoint (longest paths, CLRS §24.4).  One cross-cost table prices
    every (type, item, candidate) triple, and every candidate relaxes on
    its own slice of the (MN, MN, C) weights; a candidate still being
    raised after MN + 2 rounds has a positive cycle, i.e. is infeasible.
    Returns ``(r, feasible)`` with shapes (C, M, N) and (C,); the rewards
    of infeasible candidates are meaningless.
    """
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)
    if b.ndim != 3 or b.shape[1:] != (grid.m, grid.n) or f.shape != b.shape:
        raise ValueError("resource grids must be (C, M, N) with the type grid's shape")

    c, mn = b.shape[0], grid.m * grid.n
    # cells lead and candidates trail, so every array pass runs over C;
    # cost[i, j, c] is what cell i's type pays for cell j's item
    b, f = b.reshape(c, mn).T, f.reshape(c, mn).T
    cost = _cross_cost(b, f, grid).reshape(mn, mn, c)
    r = np.einsum("iic->ic", cost)  # IR lower bounds, (MN, C)
    # w[i, j, c]: least excess of R_i over R_j; the diagonal is exactly 0
    w = r[:, None] - cost
    for _ in range(mn + 2):
        bound = np.max(r + w, axis=1)
        up = bound > r + _RELAX_TOL
        if not up.any():
            break
        # a candidate with nothing raised has converged and stays as it is
        r = np.where(up, bound, r)
    return r.T.reshape(c, grid.m, grid.n), ~up.any(axis=0)


def minimal_reward_oracle(b_grid, f_grid, grid: TypeGrid) -> np.ndarray:
    """Minimal feasible (M, N) rewards of one menu's resource grids
    (:func:`minimal_rewards` on a batch of one).

    Raises :class:`InfeasibleMenuError` when the IC difference constraints
    have a positive cycle.
    """
    r, feasible = minimal_rewards(
        np.asarray(b_grid, dtype=float)[None], np.asarray(f_grid, dtype=float)[None], grid
    )
    if not feasible[0]:
        raise InfeasibleMenuError("positive cycle in IC difference constraints")
    return r[0]
