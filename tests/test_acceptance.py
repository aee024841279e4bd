"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test is independent but training runs are cached across criteria
that share a configuration.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from edgecontract import diffusion as df
from edgecontract import feasibility as fz
from edgecontract import harness
from edgecontract.econ import (
    ContractMenu,
    PTParams,
    eut_expected,
    prob_weight,
    pt_expected,
    pt_value,
)
from edgecontract.nn import Mlp
from edgecontract.scenario import ExperimentConfig, sample_scenario

from conftest import (
    acceptance_config,
    implementable_bf,
    make_grid,
    mlp_reference_apply,
    monotone_bf,
    neutral_pt,
    simple_channel,
    simple_hmd,
    simple_sens,
)


def _report(num: int, ok: bool, msg: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {msg}")
    assert ok, f"criterion {num}: {msg}"


# training-run cache shared by criteria 7-10
_RUNS: dict[tuple, tuple] = {}


def _train_run(seed: int, u_ref: float = 10.0, kappa: float = 0.5):
    key = (seed, u_ref, kappa)
    if key not in _RUNS:
        cfg = acceptance_config(seed)
        cfg.pt.u_ref = u_ref
        cfg.pt.kappa = kappa
        t0 = time.monotonic()
        record, agent, sc = harness.run_training(cfg)
        elapsed = time.monotonic() - t0
        _RUNS[key] = (cfg, record, agent, sc, elapsed)
    return _RUNS[key]


# ---------------------------------------------------------------------------

def test_criterion_01_reduced_check_equals_full_on_1000_menus():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    disagreements = 0
    total = 0
    for m, n, count in ((2, 2, 500), (3, 3, 500)):
        done = 0
        while done < count:
            grid = make_grid(rng, m, n)
            b, f = monotone_bf(rng, m, n)
            try:
                r = fz.minimal_reward_oracle(b, f, grid)
            except fz.InfeasibleMenuError:
                continue
            if done % 2 == 1:  # half perturbed, half oracle-feasible
                r = r * rng.uniform(0.8, 1.2, size=r.shape)
            menu = ContractMenu(b=b, f=f, r=r)
            if fz.check_full(menu, grid).feasible != fz.check_reduced(menu, grid).feasible:
                disagreements += 1
            done += 1
            total += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60.0
    _report(1, ok, f"reduced vs full verdicts on {total} menus (2x2+3x3): "
                   f"{disagreements} disagreements in {elapsed:.1f}s")


def test_criterion_02_recurrence_matches_oracle_and_menus_feasible():
    rng = np.random.default_rng(1002)
    t0 = time.monotonic()
    mismatches = 0
    infeasible_completions = 0
    for _ in range(200):
        grid = make_grid(rng)
        b, f, r_orc = implementable_bf(rng, grid)
        r_rec = fz.optimal_rewards(b, f, grid)
        if not np.allclose(r_rec, r_orc, rtol=1e-6, atol=1e-9):
            mismatches += 1
        if not fz.check_full(ContractMenu(b=b, f=f, r=r_rec), grid).feasible:
            infeasible_completions += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and infeasible_completions == 0 and elapsed < 60.0
    _report(2, ok, f"recurrence vs oracle on 200 monotone 2x2 menus: "
                   f"{mismatches} value mismatches, {infeasible_completions} infeasible "
                   f"completions in {elapsed:.1f}s")


def test_criterion_03_utility_orderings_on_oracle_outputs():
    rng = np.random.default_rng(1003)
    violations = 0
    for _ in range(200):
        grid = make_grid(rng)
        b, f, r = implementable_bf(rng, grid)
        menu = ContractMenu(b=b, f=f, r=r)
        own = fz.ic_slack(menu, grid)[0]
        v = fz.cross_utility_tensor(menu, grid)
        tol = 1e-9
        # higher type earns weakly higher own utility along each axis
        if np.any(np.diff(own, axis=0) < -tol) or np.any(np.diff(own, axis=1) < -tol):
            violations += 1
            continue
        # top type's own utility dominates every lower type's own utility
        if own[1, 1] < max(own[0, 1], own[1, 0], own[0, 0]) - tol:
            violations += 1
            continue
        # top type weakly prefers its own item over every other item
        if np.any(v[1, 1, 1, 1] < v[1, 1] - tol):
            violations += 1
    ok = violations == 0
    _report(3, ok, f"own-utility monotonicity and top-type preference orderings "
                   f"on 200 oracle menus: {violations} violations")


def test_criterion_04_prospect_theory_identities(rng):
    failures = []
    # value function vanishes at the reference point
    for u_ref in (0.0, 5.0, 17.3):
        pt = PTParams(delta_plus=0.88, delta_minus=0.88, kappa=2.25, u_ref=u_ref)
        if abs(pt_value(u_ref, pt)) > 1e-12:
            failures.append(f"pt_value({u_ref}) != 0")
    # neutral parameters reduce the PT objective to plain expected utility
    worst = 0.0
    for _ in range(20):
        grid = make_grid(rng)
        menu = ContractMenu(
            b=rng.uniform(0, 10, (2, 2)),
            f=rng.uniform(0, 3, (2, 2)),
            r=rng.uniform(0, 50, (2, 2)),
        )
        ch, hmd, sens = simple_channel(), simple_hmd(), simple_sens()
        a = pt_expected(menu, grid, ch, hmd, sens, neutral_pt())
        b_ = eut_expected(menu, grid, ch, hmd, sens)
        worst = max(worst, abs(a - b_))
    if worst > 1e-12:
        failures.append(f"EUT recovery error {worst:.2e}")
    # probability-weighting fixed points
    for c in (0.5, 1.0, 1.37):
        if abs(prob_weight(1.0, c) - 1.0) > 1e-12:
            failures.append(f"H(1) != 1 at c={c}")
        if abs(prob_weight(np.exp(-1.0), c) - np.exp(-1.0)) > 1e-12:
            failures.append(f"H(1/e) != 1/e at c={c}")
    ok = not failures
    _report(4, ok, "value-function zero, EUT recovery (1e-12), weighting fixed points"
            if ok else "; ".join(failures))


def test_criterion_05_gradient_checks():
    # part 1: analytic network gradients vs central finite differences
    rng = np.random.default_rng(1005)
    worst_net = 0.0
    checked = 0
    while checked < 100:
        widths = [int(rng.integers(2, 5)) for _ in range(3)] + [int(rng.integers(1, 3))]
        acts = [str(rng.choice(["relu", "tanh", "identity"])) for _ in range(3)]
        net = Mlp(widths, acts, rng)
        x = rng.standard_normal(widths[0]) * 0.7
        upstream = rng.standard_normal(widths[-1])
        _, tape = net.apply(x)
        preacts = mlp_reference_apply(net, x)[1][1]
        if any(a == "relu" and np.any(np.abs(z) < 1e-3) for a, z in zip(acts, preacts)):
            continue  # finite differences are invalid at a relu kink
        checked += 1
        analytic, _ = net.grads(tape, upstream)
        h = 1e-5
        p = net.params
        for i in range(p.size):
            orig = p[i]
            p[i] = orig + h
            up = float(np.sum(net.apply(x)[0] * upstream))
            p[i] = orig - h
            dn = float(np.sum(net.apply(x)[0] * upstream))
            p[i] = orig
            num = (up - dn) / (2 * h)
            worst_net = max(worst_net, abs(analytic[i] - num) / max(abs(num), 1e-3))

    # part 2: actor gradient through the K=3 denoise chain on a toy agent
    hp = df.GdmHyperparams(hidden_width=4, hidden_layers=1, varpi=0.0, tanh_grad_floor=0.0)
    agent = df.GdmAgent(1, 1, df.ActionBounds(), hp=hp, seed=5)
    s = rng.standard_normal((2, df.state_dim(1, 1)))

    def loss():
        u, _, _ = agent._denoise_chain(s, np.random.default_rng(77), agent.actor, record=False)
        q, _ = agent.critic1.apply(np.concatenate([s, u], axis=1))
        return -float(np.mean(q[:, 0]))

    _, grad = df.actor_gradient(agent, s, np.random.default_rng(77))
    worst_chain = 0.0
    h = 1e-5
    p = agent.actor.params
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        up = loss()
        p[i] = orig - h
        dn = loss()
        p[i] = orig
        num = (up - dn) / (2 * h)
        worst_chain = max(worst_chain, abs(grad[i] - num) / max(abs(num), 1e-4))

    ok = worst_net < 1e-4 and worst_chain < 1e-3
    _report(5, ok, f"network gradients rel err {worst_net:.2e} (< 1e-4) over 100 nets; "
                   f"denoise-chain gradient rel err {worst_chain:.2e} (< 1e-3)")


def test_criterion_06_forward_diffusion_marginals():
    rng = np.random.default_rng(1006)
    sched = df.NoiseSchedule.default(k=3)
    n = 100_000
    x0 = 1.7
    failures = []
    for k in (1, 2, 3):
        draws = df.forward_diffuse(np.full(n, x0), k, sched, rng.standard_normal(n))
        lh = sched.lam_hat[k - 1]
        mean_th, var_th = np.sqrt(lh) * x0, 1.0 - lh
        se_mean = np.sqrt(var_th / n)
        se_var = var_th * np.sqrt(2.0 / n)
        if abs(draws.mean() - mean_th) > 3 * se_mean:
            failures.append(f"mean off at k={k}")
        if abs(draws.var() - var_th) > 3 * se_var:
            failures.append(f"variance off at k={k}")
    ok = not failures
    _report(6, ok, f"empirical moments of {n} draws within 3 SE of closed form for k=1..3"
            if ok else "; ".join(failures))


def test_criterion_07_trained_agent_beats_baselines():
    results = []
    ok = True
    for seed in (0, 1, 2):
        cfg, record, agent, sc, elapsed = _train_run(seed)
        gdm = record.final_mean_reward()
        rng = np.random.default_rng((seed, harness._BASELINE_TAG))
        _, r_rand = df.baseline_random(sc, cfg.bounds(), rng)
        _, r_greedy = df.baseline_greedy(sc, cfg.bounds())
        results.append(f"seed {seed}: gdm={gdm:.1f} random={r_rand:.1f} "
                       f"greedy={r_greedy:.1f} ({elapsed:.1f}s)")
        ok = ok and gdm >= r_rand and gdm >= r_greedy and elapsed < 600.0
    _report(7, ok, "; ".join(results))


def test_criterion_08_reward_nonincreasing_in_reference_point():
    lines = []
    ok = True
    for seed in (0, 1, 2):
        finals = [
            _train_run(seed, u_ref=v)[1].final_mean_reward() for v in harness.U_REF_SWEEP
        ]
        monotone = all(finals[i] >= finals[i + 1] for i in range(len(finals) - 1))
        ok = ok and monotone
        lines.append(f"seed {seed}: {['%.1f' % f for f in finals]}")
    _report(8, ok, f"final rewards over u_ref {list(harness.U_REF_SWEEP)}: " + "; ".join(lines))


def test_criterion_09_reward_nonincreasing_in_loss_aversion():
    lines = []
    ok = True
    for seed in (0, 1, 2):
        finals = [
            _train_run(seed, u_ref=10.0, kappa=v)[1].final_mean_reward()
            for v in harness.KAPPA_SWEEP
        ]
        monotone = all(finals[i] >= finals[i + 1] for i in range(len(finals) - 1))
        ok = ok and monotone
        lines.append(f"seed {seed}: {['%.1f' % f for f in finals]}")
    _report(9, ok, f"final rewards over kappa {list(harness.KAPPA_SWEEP)} at u_ref=10: "
                   + "; ".join(lines))


def test_criterion_10_menu_monotonicity(tmp_path):
    from edgecontract.solver import SearchSpec, refine_local, solve_grid

    solver_violations = 0
    for seed in (0, 1, 2):
        cfg = ExperimentConfig()
        cfg.seed = seed
        rng = np.random.default_rng(seed)
        sc = sample_scenario(cfg, rng)
        spec = SearchSpec(grid_points=3, refine_iters=10)
        result = refine_local(
            solve_grid(spec, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt),
            spec, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt,
        )
        solver_violations += len(fz.check_monotone(result.menu))

    agent_violations = []
    for seed in (0, 1, 2):
        _, record, _, _, _ = _train_run(seed)
        agent_violations.append(len(fz.check_monotone(record.menu)) if record.menu else 0)

    ok = solver_violations == 0
    _report(10, ok, f"solver menus: {solver_violations} monotonicity violations (must be 0); "
                    f"trained-agent menus: {agent_violations} violations reported per seed")


def test_criterion_11_byte_identical_artifacts(tmp_path):
    cfg = acceptance_config(0)
    cfg.search.grid_points = 3
    cfg.search.refine_iters = 10

    def artifacts(run_dir: Path) -> dict[str, bytes]:
        assert harness.cmd_solve(cfg, run_dir) == 0
        assert harness.cmd_train(cfg, run_dir) == 0
        return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}

    a = artifacts(tmp_path / "run1")
    b = artifacts(tmp_path / "run2")
    differing = [name for name in a if a[name] != b.get(name)]
    ok = set(a) == set(b) and not differing and len(a) >= 4
    _report(11, ok, f"solve+train rerun with identical config+seed: {len(a)} CSVs, "
                    f"{len(differing)} differ ({differing if differing else 'byte-identical'})")
