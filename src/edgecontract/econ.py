"""Core utility mathematics for the edge resource contract model.

All functions here are pure and vectorize over numpy arrays, so they can be
applied per contract item or to whole M x N menus at once.  The elementwise
ones return numpy values, for scalar inputs too; the one-menu summaries
``eut_expected`` and ``pt_expected`` return Python floats.  Internal math is
linear-scale; dB/dBm inputs must be converted at construction time with
:func:`dbm_to_watts` / :func:`db_to_linear`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PROB_TOL = 1e-12


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _coerce(obj, *names: str) -> None:
    """Store the named fields of frozen dataclass ``obj`` as float arrays."""
    for name in names:
        object.__setattr__(obj, name, _as_array(getattr(obj, name)))


@dataclass(frozen=True)
class TypeGrid:
    """The M x N lattice of seller types.

    ``theta`` divides the squared-bandwidth cost, ``sigma`` divides the
    squared-CPU-frequency cost, and ``q`` is the joint probability mass over
    type pairs.  Both type vectors must be strictly increasing, so that a
    higher index is a strictly cheaper type on its axis: the lattice order
    is then the cost order that a monotone menu follows, and that
    :func:`feasibility.check_reduced` and the neighbour recurrence rely on
    when they keep only the constraints between lattice neighbours.
    """

    theta: np.ndarray
    sigma: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        _coerce(self, "theta", "sigma", "q")
        theta, sigma, q = self.theta, self.sigma, self.q
        if theta.ndim != 1 or sigma.ndim != 1:
            raise ValueError("theta and sigma must be 1-D")
        if np.any(theta <= 0) or np.any(sigma <= 0):
            raise ValueError("type parameters must be positive")
        if np.any(np.diff(theta) <= 0):
            raise ValueError("theta must be strictly increasing")
        if np.any(np.diff(sigma) <= 0):
            raise ValueError("sigma must be strictly increasing")
        if q.shape != (theta.size, sigma.size):
            raise ValueError("q must have shape (M, N)")
        if np.any(q < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(q.sum() - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    @property
    def m(self) -> int:
        return self.theta.size

    @property
    def n(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class ContractMenu:
    """M x N grid of contract items, stored as three aligned arrays."""

    b: np.ndarray
    f: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        _coerce(self, "b", "f", "r")
        shape = self.b.shape
        if len(shape) != 2 or self.f.shape != shape or self.r.shape != shape:
            raise ValueError("b, f, r must be equal-shape 2-D arrays")

    @property
    def shape(self) -> tuple[int, int]:
        return self.b.shape

    def check_dims(self, grid: TypeGrid) -> None:
        if self.shape != (grid.m, grid.n):
            raise ValueError(
                f"menu shape {self.shape} does not match type grid ({grid.m}, {grid.n})"
            )


@dataclass(frozen=True)
class ChannelParams:
    """Downlink channel constants.

    ``p`` (transmit power, W) and ``g2`` (squared channel gain, linear) and
    ``d`` (distance, m) may be scalars or per-type-pair arrays; ``n0`` is the
    noise spectral density per unit of the bandwidth unit in use, and ``c`` is
    the latency of unit bandwidth carried over unit distance.
    """

    p: np.ndarray
    g2: np.ndarray
    n0: float
    c: float
    d: np.ndarray

    def __post_init__(self):
        _coerce(self, "p", "g2", "d")
        # NaN and inf fail (x > 0) & (x < inf)
        if not all(np.all((x > 0) & (x < np.inf)) for x in (self.p, self.g2, self.n0)):
            raise ValueError("p, g2 and n0 must be positive and finite")
        if self.c < 0 or np.any(self.d < 0):
            raise ValueError("c and d must be nonnegative")


@dataclass(frozen=True)
class HMDParams:
    """Head-mounted-display rendering constants.

    ``mu`` is the effective capacitance coefficient and ``s_eff`` the
    rendering efficiency (each scalar or per type pair).
    """

    resolution: float
    framerate: float
    s_eff: np.ndarray
    t_th: float
    zeta1: float = 0.5
    zeta2: float = 0.5
    mu: np.ndarray = field(default_factory=lambda: np.array(1.0))

    def __post_init__(self):
        if self.zeta1 <= 0 or self.zeta2 <= 0:
            raise ValueError("zeta weights must be positive")
        if abs(self.zeta1 + self.zeta2 - 1.0) > 1e-12:
            raise ValueError("zeta1 + zeta2 must equal 1")
        _coerce(self, "mu", "s_eff")
        for name in ("resolution", "framerate", "t_th", "mu", "s_eff"):
            if not np.all(getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class SensitivityParams:
    """User sensitivities to immersion (``alpha_imm``) and latency (``beta_lat``)."""

    alpha_imm: float
    beta_lat: float

    def __post_init__(self):
        if self.alpha_imm < 0 or self.beta_lat < 0:
            raise ValueError("sensitivities must be nonnegative")


@dataclass(frozen=True)
class PTParams:
    """Prospect-theory transform parameters.

    ``weight_coeff`` is the exponent of the inverse-S probability weighting
    curve (named distinctly from the immersion sensitivity).  At 1 that
    curve is the identity, and the raw probabilities weight the per-type
    values.
    """

    delta_plus: float = 1.0
    delta_minus: float = 1.0
    kappa: float = 0.0
    u_ref: float = 0.0
    weight_coeff: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.delta_plus <= 1.0 and 0.0 < self.delta_minus <= 1.0):
            raise ValueError("gain/loss exponents must lie in (0, 1]")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.weight_coeff <= 0:
            raise ValueError("weight_coeff must be positive")

    @property
    def use_weighting(self) -> bool:
        # read by pt_weights and by perfbench/reference.py
        return self.weight_coeff != 1.0


def downlink_rate(b, ch: ChannelParams) -> np.ndarray:
    """Downlink rate b*ln(1 + p*g2/(b*n0)), with the b -> 0 limit taken as 0."""
    b = _as_array(b)
    snr_num = ch.p * ch.g2 / ch.n0
    pos_b = b > 0
    rate = np.divide(snr_num, b, out=np.zeros(np.broadcast(snr_num, b).shape), where=pos_b)
    np.log1p(rate, out=rate, where=pos_b)
    return np.multiply(b, rate, out=rate, where=pos_b)


def immersion(b, f, ch: ChannelParams, hmd: HMDParams) -> np.ndarray:
    """Immersion metric: downlink rate times the log rendering gain
    ln(Dv(z1*S*b + z2*mu*f^2)/T_th).

    Zero bandwidth gives zero immersion regardless of f (the rate factor
    vanishes), so the rendering gain is taken, and its domain error raised,
    only where b > 0.
    """
    b = _as_array(b)
    f = _as_array(f)
    rate = downlink_rate(b, ch)
    arg = (
        hmd.resolution
        * hmd.framerate
        * (hmd.zeta1 * hmd.s_eff * b + hmd.zeta2 * hmd.mu * f**2)
    )
    pos_b = np.broadcast_to(b > 0, arg.shape)
    if np.any(pos_b & (arg <= 0)):
        raise ValueError("rendering argument must be positive (b and f cannot both be 0)")
    gain = np.divide(arg, hmd.t_th, out=np.zeros(arg.shape), where=pos_b)
    np.log(gain, out=gain, where=pos_b)
    return rate * gain


def latency(b, ch: ChannelParams) -> np.ndarray:
    """Transmission latency c*d*b."""
    return ch.c * ch.d * _as_array(b)


def buyer_value(b, f, ch: ChannelParams, hmd: HMDParams, sens: SensitivityParams) -> np.ndarray:
    """The buyer's value of resources before payment, alpha*immersion -
    beta*latency, elementwise over (..., M, N); a buyer utility is this
    minus the reward R."""
    return sens.alpha_imm * immersion(b, f, ch, hmd) - sens.beta_lat * latency(b, ch)


def seller_cost(b, f, theta, sigma) -> np.ndarray:
    """A seller's cost of providing bandwidth b and GPU frequency f at type
    (theta, sigma), b^2/theta + f^2/sigma, elementwise under broadcasting; a
    seller utility is the reward R minus this."""
    return np.square(b) / theta + np.square(f) / sigma


def level_tables(b_levels, f_levels, grid, ch, hmd, sens) -> tuple[np.ndarray, np.ndarray]:
    """Every value a cell can take when b and f take only the given levels:
    ``(value, ir)``, two (b level, f level, M, N) tables of
    :func:`buyer_value` and of each type's IR reward :func:`seller_cost`.

    ``value - ir`` is a type's buyer utility at its IR reward; its maximum
    over the levels is the complete-information first-best of that type.
    ``value`` is a read-only broadcast view.
    """
    b = np.asarray(b_levels, dtype=float)[:, None, None, None]
    f = np.asarray(f_levels, dtype=float)[:, None, None]
    ir = seller_cost(b, f, grid.theta[:, None], grid.sigma)
    return np.broadcast_to(buyer_value(b, f, ch, hmd, sens), ir.shape), ir


def eut_expected(menu, grid, ch, hmd, sens) -> float:
    """Expected buyer utility sum Q_{m,n} * (buyer value - R)_{m,n}."""
    menu.check_dims(grid)
    return float(np.sum(grid.q * (buyer_value(menu.b, menu.f, ch, hmd, sens) - menu.r)))


def prob_weight(p, coeff: float) -> np.ndarray:
    """Inverse-S probability weighting exp(-(-ln p)^coeff) on (0, 1]."""
    p = _as_array(p)
    if np.any(p <= 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in (0, 1]")
    return np.exp(-((-np.log(p)) ** coeff))


def pt_value(u, pt: PTParams) -> np.ndarray:
    """Reference-dependent value: gains curve above u_ref, loss-averse below.

    A NaN utility has a NaN value."""
    u = _as_array(u)
    # |u - u_ref| is exactly the gain above u_ref and u_ref - u below it; a
    # NaN fails d < 0, so it takes the gain branch and stays NaN
    d = u - pt.u_ref
    dist = np.abs(d)
    loss = d < 0
    # both powers of a finite distance are finite, as both exponents lie in
    # (0, 1]; kappa's scaling can overflow, so it is applied to losses alone
    value = np.where(loss, dist**pt.delta_minus, dist**pt.delta_plus)
    return np.multiply(value, np.where(loss, -pt.kappa, 1.0), out=value)


def pt_weights(grid: TypeGrid, pt: PTParams) -> np.ndarray:
    """(M, N) weights of the per-type PT values: the inverse-S transform of
    the probabilities Q_{m,n}, or ``grid.q`` itself at ``weight_coeff = 1``,
    where the transform is the identity but ``exp(log p)`` is not ``p`` bit
    for bit."""
    if not pt.use_weighting:
        return grid.q
    # zero-probability cells contribute nothing; transform only positives
    w = np.zeros_like(grid.q)
    pos = grid.q > 0
    w[pos] = prob_weight(grid.q[pos], pt.weight_coeff)
    return w


def pt_score(u, grid: TypeGrid, pt: PTParams) -> np.ndarray:
    """Prospect-theory expected utility of buyer utilities stacked as
    (..., M, N): the :func:`pt_weights`-weighted sum of :func:`pt_value`,
    one value per leading index."""
    return np.sum(pt_weights(grid, pt) * pt_value(u, pt), axis=(-2, -1))


def pt_expected(menu, grid, ch, hmd, sens, pt: PTParams) -> float:
    """Prospect-theory expected buyer utility of one menu: the
    :func:`pt_score` of :func:`buyer_value` minus R."""
    menu.check_dims(grid)
    return float(pt_score(buyer_value(menu.b, menu.f, ch, hmd, sens) - menu.r, grid, pt))


def dbm_to_watts(x: float) -> float:
    """dBm to watts: 10^((x - 30)/10)."""
    return 10.0 ** ((x - 30.0) / 10.0)


def db_to_linear(x: float) -> float:
    """dB to linear ratio: 10^(x/10)."""
    return 10.0 ** (x / 10.0)
