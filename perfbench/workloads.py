"""The benchmark's workloads: inputs from a seed, one timed task, answer checks.

``solve-2x2`` and ``solve-2x3`` time the exact solver (``solver.solve_grid``,
on 2 x 2 also ``solver.refine_local``, and the ``feasibility.check_full``
re-check) on one scenario per task.  ``train-accept`` times one
``harness.run_training`` call at the acceptance-suite configuration per task.
See README.md for why each workload exists and which layer each one loads.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from edgecontract import diffusion, feasibility, harness, nn, scenario, solver
from edgecontract.scenario import ExperimentConfig, config_hash

from reference import draw_scenario, grid_optimum, pt_objective
from spans import Tracer

# grid objectives of the program at the commit that defined this benchmark,
# per workload, seed and scenario index
RECORDED = Path(__file__).resolve().parent / "reference_objectives.json"
OBJ_TOL = 1e-9
# A shared host's speed can change by 1.6x within a minute, for the program
# and a fixed loop alike, so times are divided by the slowdown of such a loop
# (:func:`slowdown`) measured around each task.  Each workload kind has a
# loop with its own mix of work, because the host's slow phases slow an
# interpreter-bound loop more than a BLAS-bound one.  A rescaled time reads
# in seconds at the speed where the loop takes its nominal time, about the
# fast phase of the 2-core VM the baseline was measured on.


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= OBJ_TOL * max(1.0, abs(b))


@dataclass
class Outcome:
    """One task: its wall time, the check failures and the quality values."""

    index: int
    elapsed_s: float
    failures: list[str]
    quality: dict = field(default_factory=dict)
    # mean of the calibration loop's slowdown just before and just after the task
    slowdown: float = 1.0
    # the process's peak resident memory when the task ended
    peak_rss_mb: float = 0.0

    @property
    def norm_s(self) -> float:
        """Wall time rescaled to the machine speed at which the calibration
        loop takes its nominal time."""
        return self.elapsed_s / self.slowdown


def _violation_count(report) -> int:
    return (
        len(report.ir_violations)
        + len(report.ic_violations)
        + len(report.monotonicity_violations)
    )


# -- solve ---------------------------------------------------------------------


def solve_failures(sc, grid_objective, result, report, reference, recorded=None) -> list[str]:
    """Checks on one solved scenario; an empty list means the answer is right."""
    out = []
    if not report.feasible:
        out.append(f"check_full rejects the emitted menu ({_violation_count(report)} violations)")
    if not result.objective >= grid_objective:
        out.append(f"refined objective {result.objective!r} below grid objective {grid_objective!r}")
    if not _close(grid_objective, reference):
        out.append(f"grid objective {grid_objective!r} != reference {reference!r}")
    if recorded is not None and not _close(grid_objective, recorded):
        out.append(f"grid objective {grid_objective!r} != recorded {recorded!r}")
    m = result.menu
    scored = float(pt_objective(m.b, m.f, m.r, sc))
    if not _close(result.objective, scored):
        out.append(f"objective {result.objective!r} != emitted menu's {scored!r}")
    return out


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    tag: int
    m: int
    n: int
    grid_points: int
    # whether the task refines the grid optimum with solver.refine_local;
    # off on lattices where refine_local emits non-monotone menus (README.md)
    refine: bool = True
    # distinct scenarios per run; an untraced run times each at least once
    pool: int = 8
    kind: str = "solve"

    def config(self, seed: int) -> ExperimentConfig:
        cfg = ExperimentConfig()
        cfg.seed = seed
        cfg.scenario.m, cfg.scenario.n = self.m, self.n
        cfg.search.grid_points = self.grid_points
        return cfg

    def setup(self, seed: int):
        cfg = self.config(seed)
        scenarios = []
        for i in range(self.pool):
            rng = np.random.default_rng((seed, self.tag, i))
            if (self.m, self.n) == (2, 2):
                scenarios.append(scenario.sample_scenario(cfg, rng))
            else:  # the program's sampler supports only 2 x 2
                scenarios.append(draw_scenario(cfg, rng, self.m, self.n))
        return _SolveState(self.name, seed, cfg, scenarios, self.refine)

    def sizes(self, state) -> dict:
        _, candidates, _ = state.reference(0)
        return {"lattice": f"{self.m}x{self.n}", "grid_points": self.grid_points,
                "candidates": candidates, "scenarios": self.pool}


class _SolveState:
    def __init__(self, name, seed, cfg, scenarios, refine):
        self.cfg, self.spec, self.scenarios = cfg, cfg.search.to_spec(), scenarios
        self.refine = refine
        self._refs: dict[int, tuple] = {}
        recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
        self.recorded = recorded.get(name, {}).get(str(seed))

    def config_hashes(self) -> list[str]:
        return [config_hash(self.cfg)]

    def reference(self, i: int):
        if i not in self._refs:
            sp = self.spec
            self._refs[i] = grid_optimum(self.scenarios[i], sp.b_range, sp.f_range, sp.grid_points)
        return self._refs[i]

    def run(self, i: int) -> Outcome:
        sc, sp = self.scenarios[i], self.spec
        t0 = time.perf_counter()
        grid_res = solver.solve_grid(sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
        result = grid_res
        if self.refine:
            result = solver.refine_local(grid_res, sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
        report = feasibility.check_full(result.menu, sc.grid)
        elapsed = time.perf_counter() - t0
        recorded = self.recorded[i] if self.recorded and i < len(self.recorded) else None
        failures = solve_failures(sc, grid_res.objective, result, report,
                                  self.reference(i)[0], recorded)
        return Outcome(i, elapsed, failures, {
            "objective": result.objective,
            "grid_objective": grid_res.objective,
            "grid_evaluations": grid_res.evaluations,
            "evaluations": result.evaluations,
        })


# -- train ---------------------------------------------------------------------


def train_failures(cfg: ExperimentConfig, record) -> list[str]:
    """Checks on one training run; an empty list means it finished soundly."""
    out = []
    t = cfg.training
    if len(record.metrics) != t.episodes * t.steps:
        out.append(f"log has {len(record.metrics)} rows, expected {t.episodes * t.steps}")
    if not all(math.isfinite(float(v)) for row in record.metrics for v in row.values()):
        out.append("log holds non-finite values")
    menu = record.menu
    if menu is None:
        return out + ["no menu emitted"]
    bd = cfg.bounds()
    for label, x, lo, hi in (("b", menu.b, bd.b_min, bd.b_max), ("f", menu.f, bd.f_min, bd.f_max),
                             ("r", menu.r, bd.r_min, bd.r_max)):
        if not np.all((x >= lo) & (x <= hi)):
            out.append(f"menu {label} outside [{lo}, {hi}]")
    return out


def acceptance_training(cfg: ExperimentConfig) -> ExperimentConfig:
    """The acceptance-suite training configuration, copied value by value."""
    t = cfg.training
    t.episodes, t.steps = 300, 3
    t.batch_size = 128
    t.hidden_width, t.hidden_layers = 64, 2
    t.actor_lr = t.critic_lr = 1e-3
    t.explore_noise, t.explore_noise_final = 0.2, 0.02
    t.varpi = 0.2
    t.tanh_grad_floor = 0.1
    return cfg


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    tag: int
    # distinct training seeds per run; an untraced run times each at least once
    pool: int = 2
    kind: str = "train"
    shrink: dict | None = None  # training overrides for the self-test

    def setup(self, seed: int):
        cfgs = []
        for j in range(self.pool):
            cfg = acceptance_training(ExperimentConfig())
            if self.shrink:
                cfg.training = replace(cfg.training, **self.shrink)
            cfg.seed = int(np.random.SeedSequence((seed, self.tag, j)).generate_state(1)[0])
            # what run_training draws and builds before its first step
            scenario.sample_scenario(cfg, np.random.default_rng((cfg.seed, 0)))
            harness.build_agent(cfg)
            cfgs.append(cfg)
        return _TrainState(cfgs)

    def sizes(self, state) -> dict:
        t = state.cfgs[0].training
        agent = harness.build_agent(state.cfgs[0])
        return {"lattice": "2x2", "episodes": t.episodes, "steps": t.steps,
                "batch": t.batch_size, "actor_widths": agent.actor.widths,
                "critic_widths": agent.critic1.widths, "training_runs": self.pool}


class _TrainState:
    def __init__(self, cfgs):
        self.cfgs = cfgs

    def config_hashes(self) -> list[str]:
        return [config_hash(c) for c in self.cfgs]

    def run(self, i: int) -> Outcome:
        cfg = self.cfgs[i]
        t0 = time.perf_counter()
        record, _, sc = harness.run_training(cfg)
        elapsed = time.perf_counter() - t0
        failures = train_failures(cfg, record)
        quality = {"final_mean_reward": record.final_mean_reward()}
        if record.menu is not None and sc is not None:
            m = record.menu
            quality["u_pt"] = float(pt_objective(m.b, m.f, m.r, sc))
            quality["menu_violations"] = _violation_count(feasibility.check_full(m, sc.grid))
        return Outcome(i, elapsed, failures, quality)


WORKLOADS = {
    wl.name: wl
    for wl in (
        SolveWorkload("solve-2x2", tag=1, m=2, n=2, grid_points=5),
        SolveWorkload("solve-2x3", tag=2, m=2, n=3, grid_points=3, refine=False),
        TrainWorkload("train-accept", tag=3),
    )
}


def _interpreter_loop(reps: int = 9000) -> float:
    """Time a fixed loop of small numpy calls and one small matmul in ten,
    the mix of interpreter and BLAS work the solver does."""
    x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    w = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64) / 64
    h = np.ones((128, 64))
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(reps):
        acc += float(np.max(x * (1.0 + i * 1e-9) - x.sum(axis=0)))
        if i % 10 == 0:
            h = np.maximum(h @ w, 0.0) + 1e-3
    return time.perf_counter() - t0


def _mlp_loop(reps: int = 1700) -> float:
    """Time a fixed forward and backward pass of a 27-64-64-12 tanh MLP on
    128 rows, the small-matmul mix of the training loop."""
    rng = np.random.default_rng(0)
    ws = [rng.standard_normal((a, b)) / np.sqrt(a) for a, b in ((27, 64), (64, 64), (64, 12))]
    x = rng.standard_normal((128, 27))
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(reps):
        h, acts = x, []
        for w in ws:
            acts.append(h)
            h = np.tanh(h @ w)
        g = h * 1e-3
        for w, a in zip(reversed(ws), reversed(acts)):
            acc += float((a.T @ g).sum())
            g = (g @ w.T) * (1.0 - a * a)
    return time.perf_counter() - t0


# per workload kind: the calibration loop and its time at the nominal speed
CALIBRATION = {"solve": (_interpreter_loop, 0.1), "train": (_mlp_loop, 0.5)}


def slowdown(kind: str) -> float:
    """How many times longer than nominal the calibration loop of a workload
    kind takes right now; 1.0 at the nominal speed."""
    loop, nominal_s = CALIBRATION[kind]
    return loop() / nominal_s


def run_tasks(state, kind: str, pool: int, seconds: float, min_tasks: int, tracer=None):
    """Run tasks over the input pool until ``seconds`` pass and ``min_tasks`` ran.

    One warm-up task runs first and is not timed: the first task in a process
    runs up to 40% slower.  The calibration loop of ``kind`` runs between
    tasks.  With a
    tracer, every task runs untraced and traced on the same input,
    alternating which goes first.  Returns ``(untraced outcomes, traced
    outcomes, warm-up outcomes)``; ``seconds`` includes the warm-up.
    """
    plain, traced, warm = [], [], []
    t_end = time.perf_counter() + seconds
    calib = [slowdown(kind)]

    def one(out: list, idx: int) -> None:
        o = _guarded(state, idx)
        o.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib.append(slowdown(kind))
        o.slowdown = 0.5 * (calib[-2] + calib[-1])
        out.append(o)

    one(warm, 0)
    i = 0
    while i < min_tasks or time.perf_counter() < t_end:
        idx = i % pool
        for on in ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,):
            if not on:
                one(plain, idx)
                continue
            tracer.install()
            try:
                with tracer.span("bench.task"):
                    one(traced, idx)
            finally:
                tracer.uninstall()
        i += 1
    return plain, traced, warm


def _guarded(state, i: int):
    t0 = time.perf_counter()
    try:
        return state.run(i)
    except Exception as exc:  # a task that raises counts as failed; the run goes on
        return Outcome(i, time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"])


# -- tracing ---------------------------------------------------------------------


def _mlp_flops(factor: int):
    def work(net, x_or_tape, *_):
        x = x_or_tape.inputs[0] if hasattr(x_or_tape, "inputs") else np.asarray(x_or_tape)
        rows = x.shape[0] if x.ndim == 2 else 1
        return factor * rows * sum(a * b for a, b in zip(net.widths[:-1], net.widths[1:]))

    return work


def make_tracer() -> Tracer:
    """Spans at every call site the workloads reach, named module.function."""
    return Tracer([
        (solver, "solve_grid", "solver.solve_grid", None),
        (solver, "refine_local", "solver.refine_local", None),
        (solver, "optimal_rewards", "feasibility.optimal_rewards", None),
        (solver, "minimal_reward_oracle", "feasibility.minimal_reward_oracle", None),
        (solver, "pt_expected", "econ.pt_expected", None),
        (feasibility, "check_full", "feasibility.check_full", None),
        (scenario, "sample_scenario", "scenario.sample_scenario", None),
        (harness, "sample_scenario", "scenario.sample_scenario", None),
        (harness, "run_training", "harness.run_training", None),
        (harness, "train", "diffusion.train", None),
        (diffusion, "critic_update", "diffusion.critic_update", None),
        (diffusion, "actor_update", "diffusion.actor_update", None),
        (diffusion, "soft_update", "diffusion.soft_update", None),
        (diffusion, "reward_fn", "diffusion.reward_fn", None),
        (diffusion, "reward_components", "diffusion.reward_components", None),
        (diffusion, "pt_expected", "econ.pt_expected", None),
        (diffusion, "adam_step", "nn.adam_step", None),
        (nn.Mlp, "apply", "nn.Mlp.apply", _mlp_flops(2)),
        (nn.Mlp, "grads", "nn.Mlp.grads", _mlp_flops(4)),
    ])


REWARD_ROUTES = ("feasibility.optimal_rewards", "feasibility.minimal_reward_oracle")

# (metric, unit, better) for every per-layer metric, in report order
PER_LAYER = [
    *[(f"{n}.{k}", u, "lower") for n in (*REWARD_ROUTES, "econ.pt_expected")
      for k, u in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"))],
    ("feasibility.infeasible_frac", "ratio", "lower"),
    ("solver.feasible_frac", "ratio", "higher"),
    ("solver.solve_grid.self_s", "s", "lower"),
    ("solver.refine_local.s", "s", "lower"),
    ("solver.evals", "count", "lower"),
    ("solver.us_per_candidate", "us", "lower"),
    ("feasibility.check_full.s", "s", "lower"),
    *[(f"{n}.{k}", u, "lower") for n in ("nn.Mlp.apply", "nn.Mlp.grads", "nn.adam_step")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("nn.gflop_computed", "GFLOP", "lower"),
    ("nn.gflops", "GFLOP/s", "higher"),
    *[(f"diffusion.{n}.self_s", "s", "lower")
      for n in ("critic_update", "actor_update", "soft_update", "reward_fn", "reward_components")],
    ("diffusion.train.other_s", "s", "lower"),
    ("scenario.sample_scenario.calls", "count", "lower"),
    ("scenario.sample_scenario.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def layer_metrics(tracer: Tracer, traced: list[Outcome], plain: list[Outcome],
                  setup_tracer: Tracer) -> dict[str, float]:
    """Per-layer values per traced task (a scenario solved or a training run).

    ``scenario.sample_scenario`` is counted over the traced set-up instead,
    where its draws happen.  Times are rescaled like ``task_s``, by the
    run's median slowdown.
    """
    st = tracer.stats()  # a name never called reads as zeros
    tasks = max(len(traced), 1)
    scale = 1.0 / statistics.median(o.slowdown for o in traced) if traced else 1.0
    out: dict[str, float] = {}

    for name in (*REWARD_ROUTES, "econ.pt_expected", "nn.Mlp.apply", "nn.Mlp.grads",
                 "nn.adam_step"):
        calls, self_s = st[name].calls, st[name].self_s * scale
        out[f"{name}.calls"] = calls / tasks
        out[f"{name}.self_s"] = self_s / tasks
        out[f"{name}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0

    route_calls = sum(st[n].calls for n in REWARD_ROUTES)
    infeasible = sum(count for n in REWARD_ROUTES for err, count in st[n].errors.items()
                     if issubclass(err, feasibility.InfeasibleMenuError))
    out["feasibility.infeasible_frac"] = infeasible / route_calls if route_calls else 0.0

    grid_evals = sum(o.quality.get("grid_evaluations", 0) for o in traced)
    completed = sum(tracer.calls_under(n, "solver.solve_grid", ok_only=True) for n in REWARD_ROUTES)
    out["solver.feasible_frac"] = completed / grid_evals if grid_evals else 0.0
    grid_s = st["solver.solve_grid"].total_s * scale
    out["solver.solve_grid.self_s"] = st["solver.solve_grid"].self_s * scale / tasks
    out["solver.us_per_candidate"] = 1e6 * grid_s / grid_evals if grid_evals else 0.0
    out["solver.refine_local.s"] = st["solver.refine_local"].total_s * scale / tasks
    out["solver.evals"] = sum(o.quality.get("evaluations", 0) for o in traced) / tasks
    out["feasibility.check_full.s"] = st["feasibility.check_full"].total_s * scale / tasks

    flops = sum(st[n].work for n in ("nn.Mlp.apply", "nn.Mlp.grads"))
    nn_s = sum(st[n].self_s for n in ("nn.Mlp.apply", "nn.Mlp.grads")) * scale
    out["nn.gflop_computed"] = flops / 1e9 / tasks
    out["nn.gflops"] = flops / 1e9 / nn_s if nn_s else 0.0
    for n in ("critic_update", "actor_update", "soft_update", "reward_fn", "reward_components"):
        out[f"diffusion.{n}.self_s"] = st[f"diffusion.{n}"].self_s * scale / tasks
    out["diffusion.train.other_s"] = sum(
        st[n].self_s for n in ("harness.run_training", "diffusion.train")) * scale / tasks

    draws = setup_tracer.stats()["scenario.sample_scenario"]
    out["scenario.sample_scenario.calls"] = float(draws.calls)
    out["scenario.sample_scenario.self_s"] = draws.self_s * scale

    traced_s = sum(o.norm_s for o in traced)
    untraced_s = sum(o.norm_s for o in plain)
    out["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}
