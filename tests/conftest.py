"""Shared fixtures and samplers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from edgecontract import feasibility
from edgecontract.econ import (
    ChannelParams,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    db_to_linear,
    dbm_to_watts,
)
from edgecontract.scenario import MAX_REDRAWS, ExperimentConfig


def _increasing_types(rng: np.random.Generator, size: int) -> np.ndarray:
    """Sorted uniform draws, redrawn on exact ties."""
    for _ in range(MAX_REDRAWS):
        x = np.sort(rng.uniform(10.0, 200.0, size=size))
        if np.all(np.diff(x) > 0):
            return x
    raise RuntimeError(f"no strictly increasing draw in {MAX_REDRAWS} tries")


def make_grid(rng: np.random.Generator, m: int = 2, n: int = 2) -> TypeGrid:
    """Random strictly increasing type grid in the simulation ranges."""
    theta = _increasing_types(rng, m)
    sigma = _increasing_types(rng, n)
    q = rng.uniform(0.5, 1.0, size=(m, n))
    q = q / q.sum()
    return TypeGrid(theta=theta, sigma=sigma, q=q)


def monotone_bf(rng: np.random.Generator, m: int = 2, n: int = 2,
                b_max: float = 10.0, f_max: float = 3.0):
    """Per-axis nondecreasing resource grids."""
    b = np.sort(np.sort(rng.uniform(0.0, b_max, size=(m, n)), axis=0), axis=1)
    f = np.sort(np.sort(rng.uniform(0.0, f_max, size=(m, n)), axis=0), axis=1)
    return b, f


def implementable_bf(rng: np.random.Generator, grid: TypeGrid):
    """Monotone resource grids redrawn until the IC system is solvable;
    returns (b, f, minimal rewards)."""
    for _ in range(MAX_REDRAWS):
        b, f = monotone_bf(rng, grid.m, grid.n)
        try:
            r = feasibility.minimal_reward_oracle(b, f, grid)
        except feasibility.InfeasibleMenuError:
            continue
        return b, f, r
    raise RuntimeError(f"no implementable resource grids in {MAX_REDRAWS} draws")


def cross_utility(menu, grid: TypeGrid, m: int, n: int, p: int, q: int) -> float:
    """Scalar reference: utility of type (m, n) selecting the item designed
    for type (p, q), R - b^2/theta - f^2/sigma."""
    return float(
        menu.r[p, q] - menu.b[p, q] ** 2 / grid.theta[m] - menu.f[p, q] ** 2 / grid.sigma[n]
    )


def simple_channel(p_dbm: float = 22.5, g_db: float = -23.5, d: float = 50.0) -> ChannelParams:
    return ChannelParams(
        p=dbm_to_watts(p_dbm),
        g2=db_to_linear(g_db),
        n0=dbm_to_watts(-95.0) * 1e6,
        c=0.02,
        d=d,
    )


def simple_hmd(s_eff: float = 2.0, mu: float = 0.5) -> HMDParams:
    return HMDParams(
        resolution=2160.0 * 1200.0,
        framerate=90.0,
        s_eff=s_eff,
        t_th=1e6,
        zeta1=0.5,
        zeta2=0.5,
        mu=mu,
    )


def simple_sens() -> SensitivityParams:
    return SensitivityParams(alpha_imm=0.05, beta_lat=0.5)


def neutral_pt() -> PTParams:
    """Parameters under which the PT transform is the identity on utilities.

    kappa must be 1 so the loss branch -kappa*(-u) reduces to u below zero.
    """
    return PTParams(delta_plus=1.0, delta_minus=1.0, kappa=1.0, u_ref=0.0, weight_coeff=1.0)


def acceptance_config(seed: int = 0) -> ExperimentConfig:
    """Desk-scale training configuration used by the acceptance suite.

    The library defaults are deliberately conservative; these overrides use a
    larger learning rate and smaller networks so runs converge in seconds
    while keeping the algorithm unchanged.
    """
    cfg = ExperimentConfig()
    cfg.seed = seed
    t = cfg.training
    t.episodes = 300
    t.steps = 3
    t.batch_size = 128
    t.hidden_width = 64
    t.hidden_layers = 2
    t.actor_lr = 1e-3
    t.critic_lr = 1e-3
    t.explore_noise = 0.2
    t.explore_noise_final = 0.02
    t.varpi = 0.2
    t.tanh_grad_floor = 0.1
    return cfg


def mlp_reference_apply(net, x):
    """The allocating forward pass of a plain ``Mlp``, kept as the reference
    for the workspace version: ``(output, record)``."""
    h = np.asarray(x, dtype=float)
    batched = h.ndim == 2
    h = h if batched else h[None, :]
    inputs, preacts = [], []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        inputs.append(h)
        z = h @ w + b
        preacts.append(z)
        h = np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z
    return (h if batched else h[0]), (inputs, preacts, batched)


def mlp_reference_grads(net, record, upstream):
    """The allocating backward pass matching :func:`mlp_reference_apply`:
    ``(grad, dx)`` with ``grad`` laid out like ``net.params``."""
    inputs, preacts, batched = record
    g = np.asarray(upstream, dtype=float)
    g = g if batched else g[None, :]
    parts = []
    for i in reversed(range(len(net.weights))):
        z, act = preacts[i], net.activations[i]
        if act == "relu":
            g = g * (z > 0).astype(float)
        elif act == "tanh":
            g = g * (1.0 - np.tanh(z) ** 2)
        parts[:0] = [(inputs[i].T @ g).ravel(), np.sum(g, axis=0)]
        g = g @ net.weights[i].T
    return np.concatenate(parts), (g if batched else g[0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
