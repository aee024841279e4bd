"""Experiment configuration and scenario sampling.

Configs are flat INI-style key/value files with fixed sections; unknown keys
or sections are rejected.  The ``[training]`` section is
:class:`~edgecontract.diffusion.GdmHyperparams` itself.  The canonical
serialization (sorted ``section.key=value`` lines) feeds the config hash
recorded with every run.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .diffusion import ActionBounds, GdmHyperparams, Scenario
from .econ import (
    ChannelParams,
    HMDParams,
    PTParams,
    SensitivityParams,
    TypeGrid,
    db_to_linear,
    dbm_to_watts,
    level_tables,
    pt_score,
)
from .solver import MIN_STEP, SearchSpec, check_grid_count

__all__ = ["ExperimentConfig", "sample_scenario", "load_config", "config_hash"]


@dataclass
class ScenarioConfig:
    n_sellers: int = 5
    m: int = 2
    n: int = 2
    theta1_range: tuple[float, float] = (10.0, 100.0)
    theta2_range: tuple[float, float] = (100.0, 200.0)
    sigma1_range: tuple[float, float] = (10.0, 100.0)
    sigma2_range: tuple[float, float] = (100.0, 200.0)
    power_dbm_range: tuple[float, float] = (20.0, 25.0)
    gain_db_range: tuple[float, float] = (-25.0, -22.0)
    noise_dbm: float = -95.0
    s_eff_range: tuple[float, float] = (1.0, 3.0)
    resolution: float = 2160.0 * 1200.0
    framerate: float = 90.0
    # bandwidth is tracked in MHz: n0 below is per-MHz, t_th and mu are scaled
    # so both immersion terms stay numerically active over the action box
    bandwidth_unit_hz: float = 1e6
    t_th: float = 1e6
    zeta1: float = 0.5
    zeta2: float = 0.5
    mu_range: tuple[float, float] = (0.1, 1.0)
    latency_c: float = 0.02
    distance_range: tuple[float, float] = (10.0, 100.0)
    alpha_imm: float = 0.05
    beta_lat: float = 0.5


@dataclass
class PTConfig:
    u_ref: float = 10.0
    kappa: float = 0.5
    delta_plus: float = 0.88
    delta_minus: float = 0.88
    weight_coeff: float = 1.0
    use_weighting: bool = False

    def to_params(self) -> PTParams:
        # the [pt] keys are PTParams' fields, one for one
        return PTParams(**asdict(self))


@dataclass
class SearchConfig:
    b_min: float = 0.0
    b_max: float = 10.0
    f_min: float = 0.0
    f_max: float = 3.0
    grid_points: int = 5
    refine_iters: int = 40

    def to_spec(self) -> SearchSpec:
        return SearchSpec(
            b_range=(self.b_min, self.b_max),
            f_range=(self.f_min, self.f_max),
            grid_points=self.grid_points,
            refine_iters=self.refine_iters,
        )


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    pt: PTConfig = field(default_factory=PTConfig)
    training: GdmHyperparams = field(default_factory=GdmHyperparams)
    search: SearchConfig = field(default_factory=SearchConfig)
    seed: int = 0
    out_dir: str = "runs"

    def bounds(self) -> ActionBounds:
        return ActionBounds(
            b_min=self.search.b_min,
            b_max=self.search.b_max,
            f_min=self.search.f_min,
            f_max=self.search.f_max,
            r_min=0.0,
            r_max=self.training.r_max,
        )


# the dataclass sections of ExperimentConfig; [run] holds seed and out_dir
_SECTIONS = ("scenario", "pt", "training", "search")


def _parse_value(text: str, kind):
    if kind is bool:
        low = text.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    if kind is str:
        return text
    # tuple[float, float] ranges, comma separated
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers: {text!r}")
    return (parts[0], parts[1])


def load_config(path: str | None = None, text: str | None = None) -> ExperimentConfig:
    """Load and validate a config file; unknown sections/keys are errors."""
    parser = configparser.ConfigParser()
    try:
        if text is not None:
            parser.read_string(text)
        elif path is not None and not parser.read(path):
            raise FileNotFoundError(path)
    except configparser.Error as exc:
        # a malformed file (no section header, a repeated section or key)
        raise ValueError(" ".join(str(exc).split())) from None
    cfg = ExperimentConfig()
    for section in parser.sections():
        if section == "run":
            target, known = cfg, {"seed", "out_dir"}
        elif section in _SECTIONS:
            target = getattr(cfg, section)
            known = {f.name for f in fields(target)}
        else:
            raise ValueError(f"unknown config section [{section}]")
        for key, val in parser.items(section):
            if key not in known:
                raise ValueError(f"unknown key [{section}] {key}")
            setattr(target, key, _parse_value(val, type(getattr(target, key))))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    """Reject values the commands cannot run with, before any work starts.

    Each value is checked on its own, and then the model on the whole
    search box: the buyer's value and the IR rewards
    (:func:`econ.level_tables`) at the box's corners, at the ends of every
    ``[scenario]`` range, must be finite with no floating-point error
    (underflow aside, which numpy does not report at run time either).  The
    corners bound every point inside: the rate and the log rendering gain
    increase in b and f, latency is linear in b and the cost is quadratic
    in each.  Two intermediates are extreme just above the low ends
    instead: the rate's ``p*g2/(n0*b)``, and the gain's argument, which
    tends to 0 with b and f.  So each axis also takes the smallest value
    above its low end that a search visits, :data:`solver.MIN_STEP` of its
    range above it.

    Last, ``[pt]``'s transform (:func:`econ.pt_score`) must be finite with
    no floating-point error at the highest and the lowest utility a command
    can form on the box.  Every reward is at least 0 and at most the larger
    of ``r_max`` (a trained or random menu) and M*N times the largest IR
    reward: a minimal reward is a longest path of at most M*N - 1 IC edges,
    each weighing at most one seller cost, from an IR start that is a
    seller cost.  So a utility lies between the smallest buyer value less
    that bound and the largest buyer value, and as :func:`econ.pt_value` is
    monotone, the two ends bound every PT value.  The weights are taken at
    two draws of the 2x2 sampler, one with its smallest cell probability
    (0.5/3.5) and one with its largest (1/2.5).
    """
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, (float, tuple)) and not np.all(np.isfinite(v)):
                raise ValueError(f"[{section}] {f.name} must be finite")
    # the search box, grid_points and refine_iters; the PT parameters; the
    # noise schedule the agent builds
    for section, build in (("search", cfg.search.to_spec), ("pt", cfg.pt.to_params),
                           ("training", cfg.training.schedule)):
        try:
            build()
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from None
    sc = cfg.scenario
    if (sc.m, sc.n) != (2, 2):
        raise ValueError("[scenario] m and n must be 2: sampling is defined for 2x2 type grids")
    # solve_grid enumerates every monotone grid of each axis up front
    try:
        check_grid_count(cfg.search.grid_points, sc.m, sc.n)
    except ValueError as exc:
        raise ValueError(f"[search] {exc}") from None
    for name, low in (("episodes", 1), ("steps", 1), ("batch_size", 1), ("buffer_capacity", 1),
                      ("hidden_width", 1), ("hidden_layers", 0)):
        if getattr(cfg.training, name) < low:
            raise ValueError(f"[training] {name} must be >= {low}")
    # tau outside [0, 1] makes soft_update extrapolate; a learning rate at or
    # below 0 freezes the network or ascends the loss
    for name in ("tau", "gamma"):
        if not 0 <= getattr(cfg.training, name) <= 1:
            raise ValueError(f"[training] {name} must be in [0, 1]")
    for name in ("actor_lr", "critic_lr", "r_max"):
        if not getattr(cfg.training, name) > 0:
            raise ValueError(f"[training] {name} must be > 0")
    # the one scalar no scenario type checks
    if not sc.bandwidth_unit_hz > 0:
        raise ValueError("[scenario] bandwidth_unit_hz must be > 0")
    if sc.n_sellers < 1:
        raise ValueError("[scenario] n_sellers must be >= 1")
    for f in fields(sc):
        lo_hi = getattr(sc, f.name)
        if isinstance(lo_hi, tuple) and not lo_hi[0] <= lo_hi[1]:
            raise ValueError(f"[scenario] {f.name} must be ordered as low, high")
    for axis in ("theta", "sigma"):
        # the second type is redrawn until it exceeds the first
        if not getattr(sc, f"{axis}2_range")[1] > getattr(sc, f"{axis}1_range")[1]:
            raise ValueError(
                f"[scenario] {axis}2_range must reach above the upper end of {axis}1_range"
            )
    # each draw lies between its range's ends and each type's rule on a drawn
    # value is monotone in it, so the types built at the ends (the lowest
    # first type below the highest second) check every draw
    try:
        grid = TypeGrid(theta=(sc.theta1_range[0], sc.theta2_range[1]),
                        sigma=(sc.sigma1_range[0], sc.sigma2_range[1]), q=np.full((2, 2), 0.25))
        env = _environment(sc, *(np.array([getattr(sc, f"{name}_range")]) for name in _PER_TYPE))
        box = cfg.search
        levels = ([lo, lo + MIN_STEP * (hi - lo), hi]
                  for lo, hi in ((box.b_min, box.b_max), (box.f_min, box.f_max)))
        with np.errstate(all="raise", under="ignore"):
            value, ir = level_tables(*levels, grid, *env)
            if not np.all(np.isfinite(value - ir)):
                raise FloatingPointError("a utility is not finite")
    except FloatingPointError as exc:
        raise ValueError(f"[scenario] the model fails on the search box: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"[scenario] {exc}") from None
    try:
        with np.errstate(all="raise", under="ignore"):
            top_reward = max(cfg.training.r_max, sc.m * sc.n * ir.max())
            ends = np.array([value.max(), value.min() - top_reward])[:, None, None]
            for q in ([[0.5, 1.0], [1.0, 1.0]], [[1.0, 0.5], [0.5, 0.5]]):
                draw = TypeGrid(theta=grid.theta, sigma=grid.sigma, q=np.array(q) / np.sum(q))
                pt_score(ends, draw, cfg.pt.to_params())
    except FloatingPointError as exc:
        raise ValueError(f"[pt] the transform fails on the search box's utilities: {exc}") from None


def canonical_serialization(cfg: ExperimentConfig) -> str:
    """Sorted section.key=value lines; stable across platforms."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(float(x)) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{section}.{f.name}={v}")
    lines.append(f"run.seed={cfg.seed}")
    return "\n".join(sorted(lines))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_serialization(cfg).encode()).hexdigest()[:16]


MAX_REDRAWS = 1000
# the per-type-pair draws, each from its [scenario] <name>_range, in draw order
_PER_TYPE = ("power_dbm", "gain_db", "distance", "s_eff", "mu")


def _environment(sc: ScenarioConfig, power_dbm, gain_db, d, s_eff, mu):
    """The channel, display and sensitivities of 2-D per-type-pair draws
    named by :data:`_PER_TYPE`."""
    # element by element: numpy's vectorized pow can differ in the last bits.
    # On numpy scalars a conversion that overflows gives inf, which
    # ChannelParams rejects, where a Python float would raise OverflowError
    with np.errstate(over="ignore"):
        p = np.array([[dbm_to_watts(x) for x in row] for row in power_dbm])
        g2 = np.array([[db_to_linear(x) for x in row] for row in gain_db])
        # per bandwidth unit
        n0 = float(dbm_to_watts(np.float64(sc.noise_dbm))) * sc.bandwidth_unit_hz
    ch = ChannelParams(p=p, g2=g2, n0=n0, c=sc.latency_c, d=d)
    hmd = HMDParams(resolution=sc.resolution, framerate=sc.framerate, s_eff=s_eff, t_th=sc.t_th,
                    zeta1=sc.zeta1, zeta2=sc.zeta2, mu=mu)
    return ch, hmd, SensitivityParams(alpha_imm=sc.alpha_imm, beta_lat=sc.beta_lat)


def _sample_increasing_pair(rng, lo_range, hi_range):
    lo = rng.uniform(*lo_range)
    # redraw the second type until it exceeds the first (ranges may overlap)
    for _ in range(MAX_REDRAWS):
        hi = rng.uniform(*hi_range)
        if hi > lo:
            return lo, hi
    raise ValueError(f"no draw from {hi_range} exceeded {lo!r} in {MAX_REDRAWS} tries")


def sample_scenario(cfg: ExperimentConfig, rng: np.random.Generator) -> Scenario:
    """Draw one scenario: types, channel, display and preference parameters."""
    sc = cfg.scenario
    if sc.m != 2 or sc.n != 2:
        raise ValueError("scenario sampling is defined for 2x2 type grids")

    theta = np.array(_sample_increasing_pair(rng, sc.theta1_range, sc.theta2_range))
    sigma = np.array(_sample_increasing_pair(rng, sc.sigma1_range, sc.sigma2_range))
    q = rng.uniform(0.5, 1.0, size=(2, 2))
    q = q / q.sum()

    shape = (sc.m, sc.n)
    ch, hmd, sens = _environment(
        sc, *[rng.uniform(*getattr(sc, f"{name}_range"), size=shape) for name in _PER_TYPE]
    )
    grid = TypeGrid(theta=theta, sigma=sigma, q=q)
    return Scenario(
        grid=grid, ch=ch, hmd=hmd, sens=sens, pt=cfg.pt.to_params(), n_sellers=sc.n_sellers
    )
