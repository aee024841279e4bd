"""Experiment commands: solve, train, verify, sweep.

Every command takes an :class:`ExperimentConfig` and the output directory
its caller resolved, writes CSV artifacts there, and returns 0 on success.
Outputs are a deterministic function of (config, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diffusion, feasibility, solver
from .diffusion import (
    LOG_COLUMNS,
    GdmAgent,
    Scenario,
    baseline_greedy,
    baseline_random,
    generate,
    train,
)
from .econ import ContractMenu, pt_expected
from .scenario import MAX_REDRAWS, ExperimentConfig, config_hash, sample_scenario

U_REF_SWEEP = (5.0, 10.0, 15.0, 20.0)
KAPPA_SWEEP = (0.5, 1.0, 1.5, 2.0)
# the [pt] parameters sweep can vary, each with its settings in sweep order
SWEEPS = {"u_ref": U_REF_SWEEP, "kappa": KAPPA_SWEEP}

# columns of every menu CSV the commands write and verify --menu reads
MENU_COLUMNS = ["m", "n", "b", "f", "r"]

# sub-stream tags keeping evaluation and baseline draws off the training streams
_EVAL_TAG = 101
_BASELINE_TAG = 102

# the trailing epochs RunRecord.final_mean_reward averages
_FINAL_EPOCHS = 20


@dataclass
class RunRecord:
    metrics: list[dict]
    menu: ContractMenu
    wall_clock: float

    def final_mean_reward(self) -> float:
        per_epoch: dict[int, list[float]] = {}
        for row in self.metrics:
            per_epoch.setdefault(row["epoch"], []).append(row["reward"])
        tail = sorted(per_epoch)[-_FINAL_EPOCHS:]
        return float(np.mean([np.mean(per_epoch[e]) for e in tail]))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        # a numpy float prints as np.float64(...) under numpy 2's repr
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)
                              for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_log(path: Path, metrics: list[dict]) -> None:
    """One training log: a row of :data:`LOG_COLUMNS` per (episode, step)."""
    _write_csv(path, LOG_COLUMNS, [[row[h] for h in LOG_COLUMNS] for row in metrics])


def _write_menu(path: Path, menu: ContractMenu) -> None:
    """One menu: a row of :data:`MENU_COLUMNS` per cell, row-major."""
    _write_csv(path, MENU_COLUMNS, [[m, n, menu.b[m, n], menu.f[m, n], menu.r[m, n]]
                                    for m, n in np.ndindex(menu.shape)])


def _write_summary(path: Path, cfg: ExperimentConfig, header: list[str], values: list) -> None:
    """A one-row summary led by the run's ``config_hash`` and ``seed``."""
    _write_csv(path, ["config_hash", "seed", *header], [[config_hash(cfg), cfg.seed, *values]])


def _write_violations(path: Path, report: feasibility.FeasibilityReport) -> None:
    """Every violation of one re-check, a row each: kind, cell, other cell, slack."""
    rows = [["ir", m, n, "", "", s] for m, n, s in report.ir_violations]
    rows += [["ic", *v] for v in report.ic_violations]
    rows += [[f"monotone_{k}", i, j, m, n, ""]
             for k, (i, j), (m, n) in report.monotonicity_violations]
    _write_csv(path, ["kind", "m", "n", "p", "q", "slack"], rows)


def _violation_counts(report: feasibility.FeasibilityReport) -> list[int]:
    """IR, IC and monotonicity violation counts of one re-check."""
    return [len(report.ir_violations), len(report.ic_violations),
            len(report.monotonicity_violations)]


def _exact_solve(cfg: ExperimentConfig, sc: Scenario) -> solver.SolveResult:
    """The exact grid search on one scenario, refined by the pattern search."""
    spec = cfg.search.to_spec()
    result = solver.solve_grid(spec, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    return solver.refine_local(result, spec, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)


def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    """Exact (bounded) monotone grid search plus local refinement; emits the menu."""
    rng = np.random.default_rng(cfg.seed)
    sc = sample_scenario(cfg, rng)
    t0 = time.monotonic()
    result = _exact_solve(cfg, sc)
    elapsed = time.monotonic() - t0

    report = feasibility.check_full(result.menu, sc.grid)
    if not report.feasible:
        _write_violations(out / "solve_violations.csv", report)
        print("solve: emitted menu failed feasibility re-check")
        return 1

    _write_menu(out / "solve_menu.csv", result.menu)
    # wall-clock goes to stdout only so CSVs stay byte-identical across runs
    _write_summary(out / "solve_summary.csv", cfg, ["objective", "evaluations"],
                   [result.objective, result.evaluations])
    print(
        f"solve: objective={result.objective:.6f} evaluations={result.evaluations} "
        f"({elapsed:.2f}s)"
    )
    return 0


def build_agent(cfg: ExperimentConfig) -> GdmAgent:
    return GdmAgent(
        m=cfg.scenario.m,
        n=cfg.scenario.n,
        bounds=cfg.bounds(),
        hp=cfg.training,
        seed=cfg.seed,
    )


def run_training(cfg: ExperimentConfig) -> tuple[RunRecord, GdmAgent, Scenario]:
    agent = build_agent(cfg)
    t0 = time.monotonic()
    log, sc = train(agent, lambda rng: sample_scenario(cfg, rng), cfg.seed)
    elapsed = time.monotonic() - t0
    menu = generate(sc, agent, np.random.default_rng((cfg.seed, _EVAL_TAG)))
    return RunRecord(metrics=log, menu=menu, wall_clock=elapsed), agent, sc


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    """Run the diffusion-policy training loop; emits log, menu, and baselines.

    The emitted menu is re-checked on the final scenario and the summary
    reports the verdict, its violation counts, the menu's PT expected
    utility, the objective ``solve``'s search reaches on that scenario and
    the gap between the two; an infeasible menu does not change the exit
    code.
    """
    record, _, sc = run_training(cfg)
    _write_log(out / "train_log.csv", record.metrics)
    _write_menu(out / "train_menu.csv", record.menu)

    # the baselines are scored with the run's own reward shaping
    shaping = cfg.training.penalty_weight, cfg.training.violations_only
    rng = np.random.default_rng((cfg.seed, _BASELINE_TAG))
    _, r_rand = baseline_random(sc, cfg.bounds(), rng, *shaping)
    _, r_greedy = baseline_greedy(sc, cfg.bounds(), *shaping)
    report = feasibility.check_full(record.menu, sc.grid)
    u_pt = pt_expected(record.menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    counts = _violation_counts(report)
    exact = _exact_solve(cfg, sc)
    _write_summary(
        out / "train_summary.csv", cfg,
        ["final_mean_reward", "random_reward", "greedy_reward", "menu_feasible",
         "ir_violations", "ic_violations", "monotone_violations", "u_pt",
         "solver_objective", "gap_to_solver"],
        [record.final_mean_reward(), r_rand, r_greedy, report.feasible, *counts, u_pt,
         exact.objective, exact.objective - u_pt],
    )
    print(
        f"train: final_mean_reward={record.final_mean_reward():.4f} "
        f"greedy={r_greedy:.4f} random={r_rand:.4f} ({record.wall_clock:.2f}s)"
    )
    print("train: menu {}: {} IR, {} IC, {} monotonicity violations, u_pt={:.4f}".format(
        "feasible" if report.feasible else "infeasible", *counts, u_pt))
    return 0


def cmd_verify(cfg: ExperimentConfig, out: Path, menu_csv: Path | None = None) -> int:
    """Re-run the feasibility property suites; optionally re-check a menu CSV."""
    rng = np.random.default_rng(cfg.seed)
    failures = []

    if menu_csv is not None:
        sc = sample_scenario(cfg, np.random.default_rng(cfg.seed))
        menu = _read_menu_csv(menu_csv, cfg.scenario.m, cfg.scenario.n)
        report = feasibility.check_full(menu, sc.grid)
        if not report.feasible:
            failures.append("menu {} infeasible: {} IR, {} IC, {} monotonicity violations".format(
                menu_csv, *_violation_counts(report)))
    else:
        # reduction equivalence spot check on fresh random menus; roughly a
        # third of random monotone grids carry a positive IC cycle and are
        # skipped (implementability needs more than per-axis monotonicity)
        for trial in range(200):
            sc, b, f, r = _sample_implementable(rng, cfg)
            if trial % 2 == 1:
                r = r * rng.uniform(0.8, 1.2, size=r.shape)
            menu = ContractMenu(b=b, f=f, r=r)
            full = feasibility.check_full(menu, sc.grid)
            reduced = feasibility.check_reduced(menu, sc.grid)
            if full.feasible != reduced.feasible:
                failures.append(f"reduction disagreement on trial {trial}")
        # recurrence vs oracle: values on implementable draws, and matching
        # infeasibility verdicts on the rest
        for trial in range(100):
            sc = sample_scenario(cfg, rng)
            b, f = _random_monotone_resources(rng, cfg)
            try:
                r_orc = feasibility.minimal_reward_oracle(b, f, sc.grid)
            except feasibility.InfeasibleMenuError:
                r_orc = None
            try:
                r_rec = feasibility.optimal_rewards(b, f, sc.grid)
            except feasibility.InfeasibleMenuError:
                r_rec = None
            if (r_orc is None) != (r_rec is None):
                failures.append(f"recurrence/oracle verdict mismatch on trial {trial}")
            elif r_orc is not None and not np.allclose(r_rec, r_orc, rtol=1e-6, atol=1e-9):
                failures.append(f"recurrence/oracle mismatch on trial {trial}")

    _write_summary(out / "verify_summary.csv", cfg, ["failures"], [len(failures)])
    for msg in failures:
        print(f"verify: {msg}")
    print(f"verify: {'OK' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def _read_menu_csv(path: Path, m: int, n: int) -> ContractMenu:
    """Parse an m x n menu CSV as the commands write it: a header of
    :data:`MENU_COLUMNS` and one row per cell.  Any other content raises
    ValueError."""
    try:
        lines = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read menu {path}: {exc.strerror}") from None
    header = ",".join(MENU_COLUMNS)
    if not lines or lines[0].strip() != header:
        raise ValueError(f"menu {path}: header must be {header}")
    bfr = np.empty((3, m, n))
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != len(MENU_COLUMNS):
            raise ValueError(f"menu {path} line {lineno}: expected {len(MENU_COLUMNS)} columns, "
                             f"got {len(cols)}")
        try:
            cell = int(cols[0]), int(cols[1])
            values = [float(c) for c in cols[2:]]
        except ValueError:
            raise ValueError(f"menu {path} line {lineno}: non-numeric value") from None
        if not np.all(np.isfinite(values)):
            raise ValueError(f"menu {path} line {lineno}: non-finite value")
        if not (0 <= cell[0] < m and 0 <= cell[1] < n):
            raise ValueError(f"menu {path} line {lineno}: cell {cell} outside the {m}x{n} grid")
        if cell in seen:
            raise ValueError(f"menu {path} line {lineno}: duplicate cell {cell}")
        seen.add(cell)
        bfr[:, cell[0], cell[1]] = values
    if len(seen) != m * n:
        missing = sorted({(i, j) for i in range(m) for j in range(n)} - seen)
        raise ValueError(f"menu {path}: missing cells {missing}")
    return ContractMenu(b=bfr[0], f=bfr[1], r=bfr[2])


def _sample_implementable(rng: np.random.Generator, cfg: ExperimentConfig):
    """Scenario plus monotone resource grids with minimal feasible rewards,
    redrawn until the difference constraints admit a solution."""
    for _ in range(MAX_REDRAWS):
        sc = sample_scenario(cfg, rng)
        b, f = _random_monotone_resources(rng, cfg)
        try:
            r = feasibility.minimal_reward_oracle(b, f, sc.grid)
        except feasibility.InfeasibleMenuError:
            continue
        return sc, b, f, r
    raise ValueError(f"no implementable resource grids in {MAX_REDRAWS} draws")


def _random_monotone_resources(rng: np.random.Generator, cfg: ExperimentConfig):
    m, n = cfg.scenario.m, cfg.scenario.n
    # sorting along both axes yields a grid nondecreasing in each index
    b = np.sort(np.sort(rng.uniform(cfg.search.b_min, cfg.search.b_max, size=(m, n)), axis=0), axis=1)
    f = np.sort(np.sort(rng.uniform(cfg.search.f_min, cfg.search.f_max, size=(m, n)), axis=0), axis=1)
    return b, f


def cmd_sweep(cfg: ExperimentConfig, out: Path, which: str) -> int:
    """Train across one of :data:`SWEEPS` with a common seed; emits per-setting CSVs."""
    if which not in SWEEPS:
        raise ValueError(f"unknown sweep {which!r}")
    rows = []
    for value in SWEEPS[which]:
        record, _, _ = run_training(replace(cfg, pt=replace(cfg.pt, **{which: value})))
        _write_log(out / f"sweep_{which}_{value}.csv", record.metrics)
        rows.append([value, record.final_mean_reward()])

    _write_csv(out / f"sweep_{which}_summary.csv", [which, "final_mean_reward"], rows)
    rewards = [r for _, r in rows]
    monotone = all(a >= b for a, b in zip(rewards, rewards[1:]))
    print(f"sweep {which}: finals={['%.3f' % r for r in rewards]} nonincreasing={monotone}")
    return 0 if monotone else 1
