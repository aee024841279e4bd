"""IR/IC feasibility checking and minimal-reward recovery for contract menus.

Two independent routes to the minimal feasible rewards are provided:

* :func:`recurrence_utilities` / :func:`optimal_rewards` — the closed-form
  chain over type neighbors, valid for monotone resource grids; and
* :func:`minimal_reward_oracle` — a longest-path fixpoint over the complete
  difference-constraint graph, valid for arbitrary inputs.

On 2 x 2 lattices the two must agree exactly (every cell pair is adjacent);
tests enforce this.  On larger lattices the neighbor recurrence can
under-estimate when a non-adjacent constraint binds, so the oracle is the
reference there.

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
    "DeltaLambda",
    "InfeasibleMenuError",
    "NonMonotoneError",
    "cross_utility",
    "own_utilities",
    "check_ir",
    "check_ic_full",
    "check_monotone",
    "check_full",
    "check_reduced",
    "recurrence_utilities",
    "optimal_rewards",
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


@dataclass(frozen=True)
class DeltaLambda:
    """Inverse-gap vectors of the type lattice; positive by construction."""

    delta: np.ndarray
    lam: np.ndarray

    @classmethod
    def from_grid(cls, grid: TypeGrid) -> "DeltaLambda":
        delta = 1.0 / grid.theta[:-1] - 1.0 / grid.theta[1:]
        lam = 1.0 / grid.sigma[:-1] - 1.0 / grid.sigma[1:]
        return cls(delta=delta, lam=lam)


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


def check_ir(menu: ContractMenu, grid: TypeGrid) -> list[tuple[int, int, float]]:
    """List every type pair whose own-item utility is below -SLACK_TOL."""
    v = own_utilities(menu, grid)
    out = []
    for m, n in zip(*np.where(v < -SLACK_TOL)):
        out.append((int(m), int(n), float(v[m, n])))
    return out


def check_ic_full(menu: ContractMenu, grid: TypeGrid) -> list[tuple[int, int, int, int, float]]:
    """Evaluate all MN(MN-1) pairwise constraints V^{own} >= V^{other}."""
    v = cross_utility_tensor(menu, grid)
    m_dim, n_dim = menu.shape
    own = np.einsum("mnmn->mn", v)
    out = []
    for m in range(m_dim):
        for n in range(n_dim):
            slack = own[m, n] - v[m, n]
            slack[m, n] = np.inf  # own item is not a constraint
            for p, q in zip(*np.where(slack < -SLACK_TOL)):
                out.append((m, n, int(p), int(q), float(slack[p, q])))
    return out


def _monotone_violations_one(x: np.ndarray, name: str) -> list[tuple]:
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
    """Check b_{i,j} <= max(b_{i,n}, b_{m,j}) <= b_{m,n} for m > i, n > j (and f)."""
    return _monotone_violations_one(menu.b, "b") + _monotone_violations_one(menu.f, "f")


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
    menu.check_dims(grid)
    v = cross_utility_tensor(menu, grid)
    own = np.einsum("mnmn->mn", v)
    m_dim, n_dim = menu.shape

    ir = []
    if own[0, 0] < -SLACK_TOL:
        ir.append((0, 0, float(own[0, 0])))

    ic = []
    for m in range(m_dim):
        for n in range(n_dim):
            targets = set()
            for p, q in ((m, n - 1), (m - 1, n), (m - 1, n - 1),
                         (m, n + 1), (m + 1, n), (m + 1, n + 1)):
                if 0 <= p < m_dim and 0 <= q < n_dim:
                    targets.add((p, q))
            for p in range(m_dim):
                for q in range(n_dim):
                    if (p - m) * (q - n) < 0:
                        targets.add((p, q))
            for p, q in sorted(targets):
                slack = own[m, n] - v[m, n, p, q]
                if slack < -SLACK_TOL:
                    ic.append((m, n, p, q, float(slack)))

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


def minimal_reward_oracle(b_grid, f_grid, grid: TypeGrid, max_iters: int | None = None) -> np.ndarray:
    """Componentwise-minimal rewards satisfying every IR and IC constraint.

    The IC constraints are difference constraints on R; starting from the IR
    lower bounds, repeated relaxation over the complete constraint graph
    converges to the least fixpoint (longest paths).  A relaxation that is
    still active after MN rounds witnesses a positive cycle, i.e.
    infeasibility, and raises :class:`InfeasibleMenuError`.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    f_grid = np.asarray(f_grid, dtype=float)
    if b_grid.shape != (grid.m, grid.n) or f_grid.shape != (grid.m, grid.n):
        raise ValueError("resource grids must match the type grid shape")

    b2 = b_grid**2
    f2 = f_grid**2
    inv_t = 1.0 / grid.theta[:, None]
    inv_s = 1.0 / grid.sigma[None, :]

    r = b2 * inv_t + f2 * inv_s  # IR lower bounds
    cells = [(m, n) for m in range(grid.m) for n in range(grid.n)]
    n_cells = len(cells)

    for _ in range(n_cells + 2):
        changed = False
        for m, n in cells:
            # R_{m,n} >= R_{p,q} + (b_{m,n}^2 - b_{p,q}^2)/theta_m
            #                    + (f_{m,n}^2 - f_{p,q}^2)/sigma_n
            bound = np.max(
                r + (b2[m, n] - b2) * inv_t[m, 0] + (f2[m, n] - f2) * inv_s[0, n]
            )
            if bound > r[m, n] + SLACK_TOL * 1e-3:
                r[m, n] = bound
                changed = True
        if not changed:
            return r
    raise InfeasibleMenuError("positive cycle in IC difference constraints")
