"""IR/IC feasibility checking and minimal-reward recovery for contract menus.

:func:`ic_slack` is the one computation of IC slack: the checkers list
violations from it, and the diffusion reward sums it.

:func:`minimal_rewards` gives the minimal feasible rewards on every lattice,
for a whole batch of candidate resource grids at once: the IR/IC constraints
are difference constraints on R, so the least solution is a longest-path
fixpoint over the complete constraint graph (CLRS §24.4), found by one Jacobi
relaxation over all candidates.  :func:`minimal_reward_oracle` is its batch
of one, which raises :class:`InfeasibleMenuError` instead of returning a
verdict.  The solver's grid search completes its candidates in batches, and
its refinement completes one probe at a time.

:func:`recurrence_utilities` / :func:`optimal_rewards` — the closed-form
chain over type neighbors, valid for monotone resource grids — are kept as
the independent reference: on 2 x 2 lattices (every cell pair adjacent) the
two routes must agree exactly, and tests and ``verify`` enforce this.  On
larger lattices the neighbor recurrence can under-estimate when a
non-adjacent constraint binds.

Note that per-axis monotonicity does not guarantee implementability: an
anti-diagonal type pair (higher theta / lower sigma against the reverse) can
induce a positive cycle in the reward difference constraints.  Both routes
raise :class:`InfeasibleMenuError` in that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .econ import ContractMenu, TypeGrid

__all__ = [
    "SLACK_TOL",
    "FeasibilityReport",
    "InfeasibleMenuError",
    "NonMonotoneError",
    "cross_utility",
    "own_utilities",
    "ic_slack",
    "check_ir",
    "check_ic_full",
    "monotone_violations",
    "check_monotone",
    "check_full",
    "check_reduced",
    "recurrence_utilities",
    "optimal_rewards",
    "minimal_rewards",
    "minimal_reward_oracle",
]

# doubles-scale arithmetic on utilities of magnitude <= 1e3
SLACK_TOL = 1e-9


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

    def csv_rows(self) -> list[str]:
        """Plain CSV listing: kind, indices, slack."""
        rows = ["kind,m,n,p,q,slack"]
        for m, n, s in self.ir_violations:
            rows.append(f"ir,{m},{n},,,{s!r}")
        for m, n, p, q, s in self.ic_violations:
            rows.append(f"ic,{m},{n},{p},{q},{s!r}")
        for v in self.monotonicity_violations:
            field_name, (i, j), (m, n) = v
            rows.append(f"monotone_{field_name},{i},{j},{m},{n},")
        return rows


def cross_utility(menu: ContractMenu, grid: TypeGrid, m: int, n: int, p: int, q: int) -> float:
    """Utility of type (m, n) selecting the item designed for type (p, q)."""
    menu.check_dims(grid)
    if not (0 <= m < grid.m and 0 <= n < grid.n and 0 <= p < grid.m and 0 <= q < grid.n):
        raise IndexError("type indices out of range")
    return float(
        menu.r[p, q] - menu.b[p, q] ** 2 / grid.theta[m] - menu.f[p, q] ** 2 / grid.sigma[n]
    )


def cross_utility_tensor(menu: ContractMenu, grid: TypeGrid) -> np.ndarray:
    """All V_{m,n}^{p,q} as a (M, N, M, N) tensor indexed [m, n, p, q]."""
    menu.check_dims(grid)
    cost = (
        menu.b[None, None, :, :] ** 2 / grid.theta[:, None, None, None]
        + menu.f[None, None, :, :] ** 2 / grid.sigma[None, :, None, None]
    )
    return menu.r[None, None, :, :] - cost


def own_utilities(menu: ContractMenu, grid: TypeGrid) -> np.ndarray:
    """Each type's utility from its own item, as an (M, N) array."""
    menu.check_dims(grid)
    return (
        menu.r
        - menu.b**2 / grid.theta[:, None]
        - menu.f**2 / grid.sigma[None, :]
    )


def ic_slack(menu: ContractMenu, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Own-item utilities (M, N) and the IC slack tensor (M, N, M, N).

    Entry [m, n, p, q] is V^{own}_{m,n} - V^{p,q}_{m,n}; a negative entry is
    an IC violation.  The diagonal (m, n) == (p, q) is exactly 0.0.
    """
    v = cross_utility_tensor(menu, grid)
    own = np.einsum("mnmn->mn", v)
    return own, own[:, :, None, None] - v


def _ic_violations(slack: np.ndarray, mask: np.ndarray) -> list[tuple[int, int, int, int, float]]:
    """(m, n, p, q, slack) for every entry in ``mask``, in index order."""
    return [
        (int(m), int(n), int(p), int(q), float(slack[m, n, p, q]))
        for m, n, p, q in np.argwhere(mask)
    ]


def check_ir(menu: ContractMenu, grid: TypeGrid) -> list[tuple[int, int, float]]:
    """List every type pair whose own-item utility is below -SLACK_TOL."""
    v = own_utilities(menu, grid)
    out = []
    for m, n in zip(*np.where(v < -SLACK_TOL)):
        out.append((int(m), int(n), float(v[m, n])))
    return out


def check_ic_full(menu: ContractMenu, grid: TypeGrid) -> list[tuple[int, int, int, int, float]]:
    """Evaluate all MN(MN-1) pairwise constraints V^{own} >= V^{other}."""
    _, slack = ic_slack(menu, grid)
    # the diagonal slack is exactly 0, so own items never count as violations
    return _ic_violations(slack, slack < -SLACK_TOL)


def monotone_violations(x: np.ndarray, name: str) -> list[tuple]:
    """Check x_{i,j} <= max(x_{i,n}, x_{m,j}) <= x_{m,n} for m > i, n > j on
    one (M, N) resource grid; violations are labelled ``name``."""
    out = []
    m_dim, n_dim = x.shape
    for m in range(m_dim):
        for n in range(n_dim):
            for i in range(m):
                for j in range(n):
                    hi = max(x[i, n], x[m, j])
                    if not (
                        x[i, j] <= hi + SLACK_TOL and hi <= x[m, n] + SLACK_TOL
                    ):
                        out.append((name, (i, j), (m, n)))
    return out


def check_monotone(menu: ContractMenu) -> list[tuple]:
    """:func:`monotone_violations` of the menu's b and f grids."""
    return monotone_violations(menu.b, "b") + monotone_violations(menu.f, "f")


def check_full(menu: ContractMenu, grid: TypeGrid) -> FeasibilityReport:
    """Full constraint set: every IR, every IC pair, and resource monotonicity."""
    return FeasibilityReport(
        ir_violations=check_ir(menu, grid),
        ic_violations=check_ic_full(menu, grid),
        monotonicity_violations=check_monotone(menu),
    )


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
    own, slack = ic_slack(menu, grid)
    m_dim, n_dim = menu.shape

    ir = []
    if own[0, 0] < -SLACK_TOL:
        ir.append((0, 0, float(own[0, 0])))

    # offsets (p - m, q - n) of every ordered type pair, shape (M, N, M, N)
    dm = np.arange(m_dim)[None, None, :, None] - np.arange(m_dim)[:, None, None, None]
    dn = np.arange(n_dim)[None, None, None, :] - np.arange(n_dim)[None, :, None, None]
    comparable_neighbor = (np.maximum(np.abs(dm), np.abs(dn)) == 1) & (dm * dn >= 0)
    incomparable = dm * dn < 0
    ic = _ic_violations(slack, (comparable_neighbor | incomparable) & (slack < -SLACK_TOL))

    return FeasibilityReport(
        ir_violations=ir,
        ic_violations=ic,
        monotonicity_violations=check_monotone(menu),
    )


def _require_monotone(b_grid: np.ndarray, f_grid: np.ndarray) -> None:
    fake = ContractMenu(b=b_grid, f=f_grid, r=np.zeros_like(b_grid))
    bad = check_monotone(fake)
    if bad:
        raise NonMonotoneError(f"resource grids violate monotonicity: {bad[:3]}")


def recurrence_utilities(b_grid, f_grid, grid: TypeGrid) -> np.ndarray:
    """Minimal seller utilities V*_{m,n} for monotone resource grids.

    V at the lowest type is pinned to zero (binding IR) and every other cell
    takes the largest local IC lower bound implied by its lattice neighbors,

        V_{m,n} >= V_{p,q} + b_{p,q}^2 (1/theta_p - 1/theta_m)
                          + f_{p,q}^2 (1/sigma_q - 1/sigma_n),

    swept in lexicographic order until stable.  The chain through the
    downward diagonal reproduces the closed-form utility recurrence; the
    remaining adjacent cells must be kept because an anti-diagonal neighbor
    with large bandwidth and small frequency can bind.  On 2 x 2 lattices all
    cells are mutually adjacent, so this fixpoint equals the full
    longest-path solution of :func:`minimal_reward_oracle` exactly.  On
    larger lattices a non-adjacent constraint can bind and the result is a
    lower bound; use the oracle there.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    f_grid = np.asarray(f_grid, dtype=float)
    if b_grid.shape != (grid.m, grid.n) or f_grid.shape != (grid.m, grid.n):
        raise ValueError("resource grids must match the type grid shape")
    _require_monotone(b_grid, f_grid)

    inv_t = 1.0 / grid.theta
    inv_s = 1.0 / grid.sigma
    v = np.zeros((grid.m, grid.n))
    neighbors = [(dm, dn) for dm in (-1, 0, 1) for dn in (-1, 0, 1) if (dm, dn) != (0, 0)]
    for _ in range(grid.m * grid.n + 2):
        changed = False
        for m in range(grid.m):
            for n in range(grid.n):
                bounds = [0.0]
                for dm, dn in neighbors:
                    p, q = m + dm, n + dn
                    if 0 <= p < grid.m and 0 <= q < grid.n:
                        bounds.append(
                            v[p, q]
                            + b_grid[p, q] ** 2 * (inv_t[p] - inv_t[m])
                            + f_grid[p, q] ** 2 * (inv_s[q] - inv_s[n])
                        )
                best = max(bounds)
                if best > v[m, n] + SLACK_TOL * 1e-3:
                    v[m, n] = best
                    changed = True
        if not changed:
            return v
    # monotonicity alone does not rule out positive anti-diagonal cycles
    raise InfeasibleMenuError("positive cycle in IC difference constraints")


def optimal_rewards(b_grid, f_grid, grid: TypeGrid) -> np.ndarray:
    """Minimal feasible rewards R* = V* + b^2/theta + f^2/sigma."""
    b_grid = np.asarray(b_grid, dtype=float)
    f_grid = np.asarray(f_grid, dtype=float)
    v = recurrence_utilities(b_grid, f_grid, grid)
    return v + b_grid**2 / grid.theta[:, None] + f_grid**2 / grid.sigma[None, :]


def minimal_rewards(b, f, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise-minimal rewards for a batch of (C, M, N) resource grids.

    The IC constraints are difference constraints on R,

        R_{m,n} >= R_{p,q} + (b_{m,n}^2 - b_{p,q}^2)/theta_m
                           + (f_{m,n}^2 - f_{p,q}^2)/sigma_n,

    so, starting from the IR lower bounds, Jacobi relaxation over the
    complete constraint graph converges to the least fixpoint (longest
    paths, CLRS §24.4).  Every candidate relaxes on its own slice of one
    (MN, MN, C) weight tensor; a candidate still being raised after MN + 2
    rounds has a positive cycle, i.e. is infeasible.  Returns
    ``(r, feasible)`` with shapes (C, M, N) and (C,); the rewards of
    infeasible candidates are meaningless.
    """
    b = np.asarray(b, dtype=float)
    f = np.asarray(f, dtype=float)
    if b.ndim != 3 or b.shape[1:] != (grid.m, grid.n) or f.shape != b.shape:
        raise ValueError("resource grids must be (C, M, N) with the type grid's shape")

    c, mn = b.shape[0], grid.m * grid.n
    # cells lead and candidates trail, so every array pass runs over C
    b2 = np.square(b.reshape(c, mn).T, order="C")
    f2 = np.square(f.reshape(c, mn).T, order="C")
    inv_t = np.repeat(1.0 / grid.theta, grid.n)[:, None]  # per cell, row-major
    inv_s = np.tile(1.0 / grid.sigma, grid.m)[:, None]

    # w[i, j, c]: least excess of R_i over R_j; the diagonal is exactly 0
    w = (b2[:, None] - b2) * inv_t[:, None] + (f2[:, None] - f2) * inv_s[:, None]
    r = b2 * inv_t + f2 * inv_s  # IR lower bounds, (MN, C)
    for _ in range(mn + 2):
        bound = np.max(r + w, axis=1)
        up = bound > r + SLACK_TOL * 1e-3
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
