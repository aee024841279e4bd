"""Independent reference answers for the benchmark's solve workloads.

Everything here is written from the model's definitions, not from the
program's code paths, so a change to ``solver``, ``feasibility`` or ``econ``
cannot move the reference along with the answer it checks:

* :func:`draw_scenario` draws an M x N scenario from the ``ScenarioConfig``
  ranges (the program's sampler supports only 2 x 2);
* :func:`pt_objective` scores menus, batched over leading axes;
* :func:`grid_optimum` is the exhaustive monotone grid search, with every
  candidate's minimal rewards found by one batched longest-path relaxation.
"""

from __future__ import annotations

import itertools

import numpy as np

from edgecontract.diffusion import Scenario
from edgecontract.econ import (
    ChannelParams,
    HMDParams,
    SensitivityParams,
    TypeGrid,
    db_to_linear,
    dbm_to_watts,
)

# change threshold of the relaxation; matches the program's oracle, which
# treats smaller moves as converged
_RELAX_TOL = 1e-12
_MAX_REDRAWS = 100


def _increasing(rng: np.random.Generator, lo_range, hi_range, k: int) -> np.ndarray:
    """k strictly increasing values: the ends drawn as the 2 x 2 sampler
    draws its pair, the interior uniform between them."""
    for _ in range(_MAX_REDRAWS):
        lo = rng.uniform(*lo_range)
        hi = rng.uniform(*hi_range)
        vals = np.sort(np.concatenate([[lo], rng.uniform(lo, hi, size=k - 2), [hi]]))
        if np.all(np.diff(vals) > 0):
            return vals
    raise RuntimeError("could not draw strictly increasing type values")


def draw_scenario(cfg, rng: np.random.Generator, m: int, n: int) -> Scenario:
    """One M x N scenario drawn from ``cfg.scenario``'s ranges."""
    sc = cfg.scenario
    shape = (m, n)
    theta = _increasing(rng, sc.theta1_range, sc.theta2_range, m)
    sigma = _increasing(rng, sc.sigma1_range, sc.sigma2_range, n)
    q = rng.uniform(0.5, 1.0, size=shape)
    q = q / q.sum()
    ch = ChannelParams(
        p=np.vectorize(dbm_to_watts)(rng.uniform(*sc.power_dbm_range, size=shape)),
        g2=np.vectorize(db_to_linear)(rng.uniform(*sc.gain_db_range, size=shape)),
        n0=dbm_to_watts(sc.noise_dbm) * sc.bandwidth_unit_hz,
        c=sc.latency_c,
        d=rng.uniform(*sc.distance_range, size=shape),
    )
    hmd = HMDParams(
        resolution=sc.resolution,
        framerate=sc.framerate,
        s_eff=rng.uniform(*sc.s_eff_range, size=shape),
        t_th=sc.t_th,
        zeta1=sc.zeta1,
        zeta2=sc.zeta2,
        mu=rng.uniform(*sc.mu_range, size=shape),
    )
    return Scenario(
        grid=TypeGrid(theta=theta, sigma=sigma, q=q),
        ch=ch,
        hmd=hmd,
        sens=SensitivityParams(alpha_imm=sc.alpha_imm, beta_lat=sc.beta_lat),
        pt=cfg.pt.to_params(),
        n_sellers=sc.n_sellers,
    )


def pt_objective(b, f, r, sc: Scenario) -> np.ndarray:
    """Principal's prospect-theory expected utility of menus (..., M, N)."""
    ch, hmd, sens, pt, q = sc.ch, sc.hmd, sc.sens, sc.pt, sc.grid.q
    b, f, r = (np.asarray(x, dtype=float) for x in (b, f, r))
    pos = b > 0
    safe_b = np.where(pos, b, 1.0)
    rate = np.where(pos, b * np.log1p(ch.p * ch.g2 / (ch.n0 * safe_b)), 0.0)
    arg = hmd.resolution * hmd.framerate * (hmd.zeta1 * hmd.s_eff * b + hmd.zeta2 * hmd.mu * f**2)
    gain = np.where(pos, np.log(np.where(arg > 0, arg, 1.0) / hmd.t_th), 0.0)
    u = sens.alpha_imm * rate * gain - sens.beta_lat * ch.c * ch.d * b - r
    x = u - pt.u_ref
    value = np.where(x >= 0, np.abs(x) ** pt.delta_plus, -pt.kappa * np.abs(x) ** pt.delta_minus)
    w = np.exp(-((-np.log(q)) ** pt.weight_coeff)) if pt.use_weighting else q
    return np.sum(w * value, axis=(-2, -1))


def monotone_grids(levels: np.ndarray, m: int, n: int) -> np.ndarray:
    """All (m, n) grids over ``levels`` nondecreasing along both axes."""
    out = []
    for combo in itertools.product(levels, repeat=m * n):
        g = np.array(combo).reshape(m, n)
        if np.all(np.diff(g, axis=0) >= 0) and np.all(np.diff(g, axis=1) >= 0):
            out.append(g)
    return np.array(out)


def minimal_rewards(b: np.ndarray, f: np.ndarray, grid: TypeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Least rewards meeting every IR and IC constraint, for (C, M, N) grids.

    The IC constraints R_i >= R_j + (b_i^2 - b_j^2)/theta_i + (f_i^2 - f_j^2)/sigma_i
    are difference constraints; Jacobi relaxation from the IR bounds reaches
    the longest paths in at most MN - 1 rounds.  Returns ``(r, feasible)``;
    a candidate still improving after MN + 2 rounds has a positive cycle.
    """
    c, m, n = b.shape
    inv_t = np.repeat(1.0 / grid.theta, n)
    inv_s = np.tile(1.0 / grid.sigma, m)
    b2 = b.reshape(c, m * n) ** 2
    f2 = f.reshape(c, m * n) ** 2
    w = (b2[:, :, None] - b2[:, None, :]) * inv_t[None, :, None] + (
        f2[:, :, None] - f2[:, None, :]
    ) * inv_s[None, :, None]
    r = b2 * inv_t + f2 * inv_s
    active = np.ones(c, dtype=bool)
    for _ in range(m * n + 2):
        bound = np.max(r[:, None, :] + w, axis=2)
        improve = bound > r + _RELAX_TOL
        r = np.where(improve, bound, r)
        active = improve.any(axis=1)
        if not active.any():
            break
    return r.reshape(c, m, n), ~active


def grid_optimum(sc: Scenario, b_range, f_range, grid_points: int) -> tuple[float, int, int]:
    """Best objective of the exhaustive monotone grid search.

    Returns ``(objective, candidates, feasible_candidates)``.
    """
    m, n = sc.grid.m, sc.grid.n
    bs = monotone_grids(np.linspace(*b_range, grid_points), m, n)
    fs = monotone_grids(np.linspace(*f_range, grid_points), m, n)
    b = np.repeat(bs, len(fs), axis=0)
    f = np.tile(fs, (len(bs), 1, 1))
    r, feasible = minimal_rewards(b, f, sc.grid)
    obj = pt_objective(b[feasible], f[feasible], r[feasible], sc)
    return float(obj.max()), len(b), int(feasible.sum())
