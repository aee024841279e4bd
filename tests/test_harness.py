"""Config loading, scenario sampling, experiment commands, and the CLI."""

import contextlib
import io
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecontract import cli, harness, solver
from edgecontract import diffusion as df
from edgecontract import feasibility as fz
from edgecontract.econ import ContractMenu, pt_expected
from edgecontract.harness import RunRecord
from edgecontract.scenario import (
    ExperimentConfig,
    PTConfig,
    ScenarioConfig,
    SearchConfig,
    canonical_serialization,
    config_hash,
    _sample_increasing_pair,
    load_config,
    sample_scenario,
)

from conftest import acceptance_config


def _fast_cfg(seed=0) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.search.grid_points = 3
    cfg.search.refine_iters = 5
    t = cfg.training
    t.episodes = 4
    t.steps = 2
    t.batch_size = 16
    t.hidden_width = 8
    t.hidden_layers = 1
    t.actor_lr = 1e-3
    t.critic_lr = 1e-3
    return cfg


# -- config loading ---------------------------------------------------------

def test_load_config_defaults_match_dataclass():
    assert canonical_serialization(load_config(text="")) == canonical_serialization(
        ExperimentConfig()
    )


def test_load_config_parses_sections_and_types():
    cfg = load_config(text="""
[run]
seed = 9
out_dir = /tmp/somewhere

[pt]
u_ref = 15.0
weight_coeff = 0.7

[training]
episodes = 7
explore_noise_final = 0.05

[scenario]
theta1_range = 20.0, 90.0
""")
    assert cfg.seed == 9 and cfg.out_dir == "/tmp/somewhere"
    assert cfg.pt.u_ref == 15.0 and cfg.pt.weight_coeff == 0.7
    assert cfg.training.episodes == 7
    assert cfg.training.explore_noise_final == 0.05
    assert cfg.scenario.theta1_range == (20.0, 90.0)


def test_load_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        load_config(text="[training]\nepisodez = 5\n")


# weight_coeff = 1 is the unweighted case and zeta2 is 1 - zeta1, so neither
# is a key of its own
@pytest.mark.parametrize("text", ["[pt]\nuse_weighting = true\n", "[scenario]\nzeta2 = 0.5\n"],
                         ids=["use_weighting", "zeta2"])
def test_cli_derived_value_as_key_exits_2(tmp_path, capsys, text):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(text)
    err = _cli_fails_cleanly(["solve", "--config", str(cfgfile), "--seed", "0",
                              "--out", str(tmp_path / "out")], capsys)
    assert err.startswith("error: bad config: unknown key "), err


def test_zeta2_is_one_minus_zeta1(tmp_path, capsys):
    cfg = load_config(text="[scenario]\nzeta1 = 0.7\n")
    hmd = sample_scenario(cfg, np.random.default_rng(0)).hmd
    assert hmd.zeta1 == 0.7 and hmd.zeta2 == 1 - 0.7
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text("[scenario]\nzeta1 = 1.0\n")
    err = _cli_fails_cleanly(["solve", "--config", str(cfgfile), "--seed", "0",
                              "--out", str(tmp_path / "out")], capsys)
    assert err == "error: bad config: [scenario] zeta weights must be positive\n", err


def test_load_config_rejects_unknown_section():
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(text="[nonsense]\nx = 1\n")


def test_load_config_rejects_bad_bool_and_range():
    with pytest.raises(ValueError):
        load_config(text="[training]\nresample_each_step = maybe\n")
    with pytest.raises(ValueError):
        load_config(text="[scenario]\ntheta1_range = 1.0\n")


def test_load_config_missing_file():
    with pytest.raises(FileNotFoundError):
        load_config(path="/nonexistent/config.ini")


def test_config_hash_stability_and_sensitivity():
    a = load_config(text="[pt]\nu_ref = 15.0\n[training]\nepisodes = 7\n")
    b = load_config(text="[training]\nepisodes = 7\n[pt]\nu_ref = 15.0\n")
    assert config_hash(a) == config_hash(b)
    c = load_config(text="[pt]\nu_ref = 15.0\n[training]\nepisodes = 8\n")
    assert config_hash(a) != config_hash(c)
    d = load_config(text="[pt]\nu_ref = 15.0\n[training]\nepisodes = 7\n[run]\nseed = 1\n")
    assert config_hash(a) != config_hash(d)


def test_config_hash_pinned():
    # every summary CSV records this hash; renaming, retyping or dropping a
    # config field changes it
    assert config_hash(ExperimentConfig()) == "b1d708c7234226d0"
    assert config_hash(acceptance_config(0)) == "371cc10fda50d06e"


def test_canonical_serialization_is_sorted():
    lines = canonical_serialization(ExperimentConfig()).splitlines()
    assert lines == sorted(lines)


# -- scenario sampling ------------------------------------------------------

def test_sample_scenario_deterministic():
    cfg = ExperimentConfig()
    a = sample_scenario(cfg, np.random.default_rng(5))
    b = sample_scenario(cfg, np.random.default_rng(5))
    assert np.array_equal(a.grid.theta, b.grid.theta)
    assert np.array_equal(a.grid.q, b.grid.q)
    assert np.array_equal(np.asarray(a.ch.p), np.asarray(b.ch.p))


def test_sample_scenario_types_strictly_increasing(rng):
    cfg = ExperimentConfig()
    for _ in range(200):
        sc = sample_scenario(cfg, rng)
        assert sc.grid.theta[0] < sc.grid.theta[1]
        assert sc.grid.sigma[0] < sc.grid.sigma[1]
        assert sc.grid.q.sum() == pytest.approx(1.0)


def test_sample_scenario_first_type_mean(rng):
    # theta1 ~ U(10, 100): mean 55, sd 90/sqrt(12)
    cfg = ExperimentConfig()
    n = 10_000
    draws = np.array([sample_scenario(cfg, rng).grid.theta[0] for _ in range(n)])
    se = (90.0 / np.sqrt(12.0)) / np.sqrt(n)
    assert abs(draws.mean() - 55.0) < 3 * se


_CHANNEL_RULE = r"\[scenario\] p, g2 and n0 must be positive and finite"


@pytest.mark.parametrize("text, match", [
    ("[search]\ngrid_points = 1\n", "grid_points"),
    ("[search]\ngrid_points = 1000\n", "grid_points = 1000 gives more than"),
    ("[search]\ngrid_points = 58\n", "grid_points = 58 gives more than"),
    ("[search]\nb_min = 5\nb_max = 1\n", "b_min"),
    ("[scenario]\nm = 3\n", "2x2"),
    ("[training]\nepisodes = 0\n", "episodes"),
    ("[training]\nsteps = 0\n", "steps"),
    ("[training]\nbatch_size = 0\n", "batch_size"),
    ("[scenario]\nmu_range = 1.0, 0.1\n", "mu_range must be ordered"),
    ("[scenario]\ntheta1_range = 100, 200\ntheta2_range = 10, 50\n", "theta2_range"),
    ("[scenario]\nsigma2_range = 10, 100\n", "sigma2_range"),
    ("[training]\nbuffer_capacity = 0\n", "buffer_capacity"),
    ("[training]\nhidden_width = 0\n", "hidden_width"),
    ("[training]\nhidden_layers = -1\n", "hidden_layers"),
    ("[training]\nr_max = -5\n", "r_max"),
    ("[training]\nr_max = 0\n", "r_max"),
    ("[training]\ntau = nan\n", "tau must be finite"),
    ("[training]\ndiffusion_steps = 0\n", "diffusion_steps"),
    ("[training]\niota_hi = 1.5\n", "iota"),
    ("[search]\nb_max = inf\n", "b_max must be finite"),
    ("[search]\nrefine_iters = -3\n", "refine_iters"),
    ("[scenario]\nmu_range = 0.1, inf\n", "mu_range must be finite"),
    ("[pt]\nkappa = -1\n", "kappa"),
    ("[pt]\nu_ref = nan\n", "u_ref must be finite"),
    ("[training]\ntau = 3\n", "tau must be in"),
    ("[training]\ntau = -0.1\n", "tau must be in"),
    ("[training]\ngamma = -5\n", "gamma must be in"),
    ("[training]\ngamma = 1.5\n", "gamma must be in"),
    ("[training]\nactor_lr = -1\n", "actor_lr must be > 0"),
    ("[training]\nactor_lr = 0\n", "actor_lr must be > 0"),
    ("[training]\ncritic_lr = 0\n", "critic_lr must be > 0"),
    ("[scenario]\nresolution = 0\n", "resolution must be > 0"),
    ("[scenario]\nframerate = -90\n", "framerate must be > 0"),
    ("[scenario]\nt_th = -1\n", "t_th must be > 0"),
    ("[scenario]\nbandwidth_unit_hz = 0\n", "bandwidth_unit_hz must be > 0"),
    ("[scenario]\nn_sellers = 0\n", "n_sellers must be >= 1"),
    # values only a sampled scenario's types would reject, each checked at
    # its range's ends by the type's own rule
    ("[scenario]\ntheta1_range = -1, 100\n", r"\[scenario\] type parameters must be positive"),
    ("[scenario]\nsigma1_range = 0, 100\n", r"\[scenario\] type parameters must be positive"),
    ("[scenario]\nmu_range = -1, 0.5\n", r"\[scenario\] mu must be > 0"),
    ("[scenario]\ns_eff_range = -3, 1\n", r"\[scenario\] s_eff must be > 0"),
    ("[scenario]\ndistance_range = -5, 10\n", r"\[scenario\] c and d must be nonnegative"),
    ("[scenario]\nzeta1 = 1.0\n", r"\[scenario\] zeta weights must be positive"),
    ("[scenario]\nalpha_imm = -1\n", r"\[scenario\] sensitivities must be nonnegative"),
    # dB values whose conversion to a linear scale overflows to inf
    ("[scenario]\npower_dbm_range = 4000, 5000\n", _CHANNEL_RULE),
    ("[scenario]\ngain_db_range = 3500, 3600\n", _CHANNEL_RULE),
    ("[scenario]\nnoise_dbm = 4000\n", _CHANNEL_RULE),
])
@pytest.mark.filterwarnings("error")
def test_load_config_rejects_unusable_values(text, match):
    with pytest.raises(ValueError, match=match):
        load_config(text=text)


@pytest.mark.filterwarnings("error")
def test_sample_scenario_rejects_overflowing_channel_values():
    for name, value in (("power_dbm_range", (4000.0, 5000.0)),
                        ("gain_db_range", (3500.0, 3600.0)), ("noise_dbm", 4000.0)):
        cfg = ExperimentConfig()
        setattr(cfg.scenario, name, value)
        with pytest.raises(ValueError, match="^p, g2 and n0 must be positive and finite$"):
            sample_scenario(cfg, np.random.default_rng(0))


def test_sample_increasing_pair_gives_up_instead_of_hanging():
    # every draw of the second type lies below the first: a bounded redraw
    with pytest.raises(ValueError, match="tries"):
        _sample_increasing_pair(np.random.default_rng(0), (100.0, 200.0), (10.0, 50.0))


def test_sample_scenario_rejects_non_2x2():
    cfg = ExperimentConfig()
    cfg.scenario.m = 3
    with pytest.raises(ValueError):
        sample_scenario(cfg, np.random.default_rng(0))


# -- CSV plumbing -----------------------------------------------------------

def test_menu_csv_roundtrip(tmp_path, rng):
    menu = ContractMenu(
        b=rng.uniform(0, 10, (2, 2)),
        f=rng.uniform(0, 3, (2, 2)),
        r=rng.uniform(0, 50, (2, 2)),
    )
    path = tmp_path / "menu.csv"
    harness._write_menu(path, menu)
    loaded = harness._read_menu_csv(path, 2, 2)
    assert np.array_equal(loaded.b, menu.b)
    assert np.array_equal(loaded.f, menu.f)
    assert np.array_equal(loaded.r, menu.r)


def test_write_csv_prints_numpy_floats_as_python_floats(tmp_path):
    rows = [[np.float64(0.1), np.float32(0.5), 1], [0.1, 0.5, np.int64(1)]]
    harness._write_csv(tmp_path / "x.csv", ["a", "b", "c"], rows)
    assert (tmp_path / "x.csv").read_text() == "a,b,c\n0.1,0.5,1\n0.1,0.5,1\n"


def test_final_mean_reward_window():
    # two steps per epoch with rewards e and e + 1, so epoch e's mean is e + 0.5
    metrics = [{"epoch": e, "step": t, "reward": float(e + t)} for e in range(30) for t in (0, 1)]
    menu = ContractMenu(b=np.zeros((2, 2)), f=np.zeros((2, 2)), r=np.zeros((2, 2)))
    rec = RunRecord(metrics=metrics, menu=menu, wall_clock=0.0)
    # the last 20 per-epoch means, epochs 10..29
    assert rec.final_mean_reward() == pytest.approx(np.mean(np.arange(10, 30) + 0.5))


# -- commands ---------------------------------------------------------------

def test_cmd_solve_writes_artifacts(tmp_path):
    cfg = _fast_cfg()
    assert harness.cmd_solve(cfg, tmp_path) == 0
    assert (tmp_path / "solve_menu.csv").exists()
    summary = (tmp_path / "solve_summary.csv").read_text().splitlines()
    assert summary[0] == "config_hash,seed,objective,evaluations"
    assert summary[1].startswith(config_hash(cfg))


def test_cmd_solve_lists_violations_of_a_failed_recheck(tmp_path, monkeypatch):
    # f falls along row 0 and r[0, 0] = 1 is envied by every other type
    r = np.zeros((2, 2))
    r[0, 0] = 1.0
    menu = ContractMenu(b=np.zeros((2, 2)), f=np.array([[1.0, 0.0], [1.0, 1.0]]), r=r)
    monkeypatch.setattr(harness, "_exact_solve",
                        lambda cfg, sc: solver.SolveResult(menu=menu, objective=0.0, evaluations=0))
    assert harness.cmd_solve(ExperimentConfig(), tmp_path) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["solve_violations.csv"]
    assert (tmp_path / "solve_violations.csv").read_text() == (
        "kind,m,n,p,q,slack\n"
        "ir,1,0,,,-0.07305873540515785\n"
        "ir,1,1,,,-0.009837410858781663\n"
        "ic,0,1,0,0,-0.9901625891412184\n"
        "ic,1,0,0,0,-1.0\n"
        "ic,1,0,0,1,-0.07305873540515785\n"
        "ic,1,1,0,0,-1.0\n"
        "ic,1,1,0,1,-0.009837410858781663\n"
        "monotone_f,0,0,0,1,\n"
    )


def test_cmd_verify_passes_and_rechecks_solver_menu(tmp_path):
    cfg = _fast_cfg()
    assert harness.cmd_solve(cfg, tmp_path) == 0
    assert harness.cmd_verify(cfg, tmp_path) == 0
    assert harness.cmd_verify(cfg, tmp_path, menu_csv=tmp_path / "solve_menu.csv") == 0
    assert (tmp_path / "verify_summary.csv").exists()


def test_cmd_verify_flags_bad_menu(tmp_path):
    cfg = _fast_cfg()
    menu = ContractMenu(b=np.full((2, 2), 9.0), f=np.full((2, 2), 2.5), r=np.zeros((2, 2)))
    path = tmp_path / "bad_menu.csv"
    harness._write_menu(path, menu)
    assert harness.cmd_verify(cfg, tmp_path, menu_csv=path) == 1


@pytest.mark.parametrize("seed", [13, 34])
def test_cmd_solve_emits_per_axis_monotone_resources(tmp_path, seed):
    # at the default config these seeds' pattern search reaches probes that
    # fall along one axis while both cross corners stay in order
    cfg = ExperimentConfig()
    cfg.seed = seed
    assert harness.cmd_solve(cfg, tmp_path) == 0
    menu = harness._read_menu_csv(tmp_path / "solve_menu.csv", 2, 2)
    for x in (menu.b, menu.f):
        assert np.all(np.diff(x, axis=0) >= -fz.SLACK_TOL)
        assert np.all(np.diff(x, axis=1) >= -fz.SLACK_TOL)


def test_cli_verify_rejects_menu_falling_along_one_axis(tmp_path, capsys):
    # f[1, 0] < f[0, 0] with IR and IC met; the solver emitted this f for seed 13
    cfg = ExperimentConfig()
    cfg.seed = 13
    grid = sample_scenario(cfg, np.random.default_rng(13)).grid
    b = np.full((2, 2), 10.0)
    f = np.array([[3.0, 3.0], [0.0, 3.0]])
    menu = ContractMenu(b=b, f=f, r=fz.minimal_reward_oracle(b, f, grid))
    path = tmp_path / "menu.csv"
    harness._write_menu(path, menu)
    assert cli.main(["verify", "--seed", "13", "--menu", str(path), "--out", str(tmp_path)]) == 1
    assert "0 IR, 0 IC, 1 monotonicity violations" in capsys.readouterr().out


def test_cmd_train_writes_artifacts(tmp_path):
    cfg = _fast_cfg()
    assert harness.cmd_train(cfg, tmp_path) == 0
    log = (tmp_path / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,step,reward,u_pt,ic_slack_sum,ir_slack_min,critic_loss,actor_loss"
    assert len(log) == 1 + cfg.training.episodes * cfg.training.steps
    assert (tmp_path / "train_menu.csv").exists()
    summary = (tmp_path / "train_summary.csv").read_text().splitlines()
    assert summary[0] == ("config_hash,seed,final_mean_reward,random_reward,greedy_reward,"
                          "menu_feasible,ir_violations,ic_violations,monotone_violations,u_pt,"
                          "solver_objective,gap_to_solver")
    # the verdict is the re-check of the written menu on the final scenario,
    # which without resampling is the first draw
    sc = sample_scenario(cfg, np.random.default_rng((cfg.seed, 0)))
    menu = harness._read_menu_csv(tmp_path / "train_menu.csv", 2, 2)
    report = fz.check_full(menu, sc.grid)
    row = summary[1].split(",")
    assert row[5:9] == [str(report.feasible), str(len(report.ir_violations)),
                        str(len(report.ic_violations)), str(len(report.monotonicity_violations))]
    u_pt = pt_expected(menu, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    assert float(row[9]) == u_pt
    # the exact optimum on the same scenario, searched as solve searches it
    args = (sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    spec = cfg.search.to_spec()
    exact = solver.refine_local(solver.solve_grid(spec, *args), spec, *args)
    assert float(row[10]) == exact.objective
    assert float(row[11]) == exact.objective - u_pt


def test_cmd_train_scores_baselines_with_the_run_shaping(tmp_path):
    cfg = _fast_cfg()
    cfg.training.penalty_weight = 0.5
    cfg.training.violations_only = True
    assert harness.cmd_train(cfg, tmp_path) == 0
    row = (tmp_path / "train_summary.csv").read_text().splitlines()[1].split(",")
    # the final scenario is the first draw without resampling; the baseline
    # menus come from the same streams cmd_train draws them from
    sc = sample_scenario(cfg, np.random.default_rng((cfg.seed, 0)))
    rng = np.random.default_rng((cfg.seed, harness._BASELINE_TAG))
    menus = [df.baseline_random(sc, cfg.bounds(), rng)[0], df.baseline_greedy(sc, cfg.bounds())[0]]
    shaped = [df.reward_fn(m, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt, 0.5, True) for m in menus]
    assert [float(row[3]), float(row[4])] == shaped


# -- CLI --------------------------------------------------------------------

def test_cli_bad_config_path_exits_2(tmp_path):
    assert cli.main(["solve", "--config", "/nonexistent.ini"]) == 2


def test_cli_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\nepisodez = 5\n")
    assert cli.main(["solve", "--config", str(bad)]) == 2


def _solve_config_file(tmp_path) -> Path:
    path = tmp_path / "cfg.ini"
    path.write_text("[search]\ngrid_points = 3\nrefine_iters = 5\n")
    return path


def test_cli_seed_flag_overrides_config(tmp_path):
    cfgfile = _solve_config_file(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfgfile), "--seed", "7", "--out", str(out)]) == 0
    summary = (out / "solve_summary.csv").read_text().splitlines()[1]
    assert summary.split(",")[1] == "7"


def test_cli_env_seed_is_ignored(tmp_path, monkeypatch):
    # a run's seed comes from --seed or [run] seed, never the environment
    cfgfile = _solve_config_file(tmp_path)
    cfgfile.write_text(cfgfile.read_text() + "[run]\nseed = 5\n")
    out = tmp_path / "out"
    monkeypatch.setenv("EDGECONTRACT_SEED", "13")
    assert cli.main(["solve", "--config", str(cfgfile), "--out", str(out)]) == 0
    summary = (out / "solve_summary.csv").read_text().splitlines()[1]
    assert summary.split(",")[1] == "5"


@pytest.mark.parametrize("param", sorted(harness.SWEEPS))
def test_cli_sweep_writes_one_log_per_setting(tmp_path, param):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text("[training]\nepisodes = 4\nsteps = 2\nbatch_size = 16\n"
                       "hidden_width = 8\nhidden_layers = 1\n")
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(cfgfile), "--param", param, "--out", str(out)])
    for value in harness.SWEEPS[param]:
        log = (out / f"sweep_{param}_{value}.csv").read_text().splitlines()
        assert log[0] == ",".join(harness.LOG_COLUMNS)
        assert len(log) == 1 + 4 * 2
    summary = (out / f"sweep_{param}_summary.csv").read_text().splitlines()
    assert summary[0] == f"{param},final_mean_reward"
    assert [float(row.split(",")[0]) for row in summary[1:]] == list(harness.SWEEPS[param])
    finals = [float(row.split(",")[1]) for row in summary[1:]]
    nonincreasing = all(a >= b for a, b in zip(finals, finals[1:]))
    assert code == (0 if nonincreasing else 1)


def _cli_fails_cleanly(argv, capsys) -> None:
    """Exit code 2 and exactly one stderr line, no traceback."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_solve_out_at_regular_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfgfile = str(_solve_config_file(tmp_path))
    for out in (tmp_path / "file", tmp_path / "file" / "sub"):
        err = _cli_fails_cleanly(["solve", "--config", cfgfile, "--out", str(out)], capsys)
        assert err.startswith("error: cannot write output: "), err


def test_cli_train_out_at_regular_file_exits_2_before_training(tmp_path, capsys, monkeypatch):
    def no_training(cfg):
        raise AssertionError("training ran before the output directory was checked")

    monkeypatch.setattr(harness, "run_training", no_training)
    (tmp_path / "file").write_text("")
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(f"[run]\nout_dir = {tmp_path / 'file' / 'sub'}\n")
    _cli_fails_cleanly(["train", "--out", str(tmp_path / "file")], capsys)
    _cli_fails_cleanly(["train", "--config", str(cfgfile)], capsys)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_negative_seed_exits_2_before_any_output(tmp_path, capsys, source):
    cfgfile = _solve_config_file(tmp_path)
    argv = ["solve", "--config", str(cfgfile), "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfgfile.write_text(cfgfile.read_text() + "[run]\nseed = -2\n")
    err = _cli_fails_cleanly(argv, capsys)
    assert err.startswith("error: bad config: seed must be >= 0"), err
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_power_exits_2_before_any_output(tmp_path, capsys):
    cfgfile = _solve_config_file(tmp_path)
    cfgfile.write_text(cfgfile.read_text() + "[scenario]\npower_dbm_range = 4000, 5000\n")
    err = _cli_fails_cleanly(
        ["solve", "--config", str(cfgfile), "--seed", "0", "--out", str(tmp_path / "out")], capsys)
    assert err.startswith("error: bad config: [scenario] p, g2 and n0 must be positive"), err
    assert not (tmp_path / "out").exists()


# finite values each loading on their own, on which the model overflows or
# goes NaN somewhere on the search box
_BOX_OVERFLOWS = ["resolution = 1e308", "framerate = 1e308", "alpha_imm = 1e308",
                  "beta_lat = 1e308", "latency_c = 1e308", "t_th = 1e-308",
                  "bandwidth_unit_hz = 1e-308"]


@pytest.mark.parametrize("line", _BOX_OVERFLOWS)
@pytest.mark.filterwarnings("error")
def test_cli_model_overflow_on_the_search_box_exits_2_at_load(tmp_path, capsys, line):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(f"[scenario]\n{line}\n")
    out = tmp_path / "out"
    err = _cli_fails_cleanly(["solve", "--config", str(cfgfile), "--seed", "0", "--out", str(out)],
                             capsys)
    assert err.startswith("error: bad config: [scenario] "), err
    assert not (out / "solve_summary.csv").exists()


@pytest.mark.parametrize("text", ["kappa = 1e308", "weight_coeff = 1e300"])
@pytest.mark.parametrize("command", ["solve", "train"])
@pytest.mark.filterwarnings("error")
def test_cli_pt_overflow_on_the_search_box_exits_2_at_load(tmp_path, capsys, command, text):
    # the loss power times kappa, or the weight's power, overflows on the
    # utilities the box forms
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(f"[pt]\n{text}\n")
    out = tmp_path / "out"
    err = _cli_fails_cleanly([command, "--config", str(cfgfile), "--seed", "0", "--out", str(out)],
                             capsys)
    assert err.startswith("error: bad config: [pt] "), err
    assert not out.exists()


def test_grid_count_rule_is_the_solvers():
    with pytest.raises(ValueError) as solver_err:
        solver.check_grid_count(58, 2, 2)
    with pytest.raises(ValueError) as load_err:
        load_config(text="[search]\ngrid_points = 58\n")
    assert str(load_err.value) == f"[search] {solver_err.value}"


# every float and range key of [scenario] and [search], and every [pt] key,
# with its default
_BOX_KEYS = [(section, f.name, getattr(default, f.name))
             for section, default in (("scenario", ScenarioConfig()), ("search", SearchConfig()),
                                      ("pt", PTConfig()))
             for f in fields(default) if isinstance(getattr(default, f.name), (float, tuple))]
_EXTREMES = ["1e308", "-1e308", "1e-308", "-1e-308", "0", "-0.0", "5e-324", "1e300", "1e-300",
             "1" + "0" * 29]


def _extreme_config(draws) -> str:
    """Config text setting each drawn key to an extreme value: a range's low
    end (0), high end (1) or both (None)."""
    lines = {}
    for (section, key, default), value, end in draws:
        if isinstance(default, tuple):
            value = ", ".join(value if end in (None, i) else repr(x) for i, x in enumerate(default))
        lines.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(keys) + "\n" for section, keys in lines.items())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_BOX_KEYS), st.sampled_from(_EXTREMES),
                          st.sampled_from([0, 1, None])),
                min_size=1, max_size=3, unique_by=lambda d: d[0][:2]))
def test_cli_solve_on_extreme_box_values_runs_cleanly_or_exits(draws):
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile, out = Path(tmp) / "cfg.ini", Path(tmp) / "out"
        cfgfile.write_text(_extreme_config(draws))
        err = io.StringIO()
        # a numpy warning raises here, so a run that warns fails the test
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["solve", "--config", str(cfgfile), "--seed", "0", "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1, err.getvalue()
        if code == 0:
            row = (out / "solve_summary.csv").read_text().splitlines()[1].split(",")
            assert np.isfinite(float(row[2])), row


def test_screening_config_menus_screen_the_types(tmp_path):
    # the committed scenario where the optimal menu is not one pooled item at
    # the box's top corner: every menu passes the re-check, offers at least
    # two distinct (b, f) items and keeps every reward below r_max
    path = Path(__file__).resolve().parents[1] / "configs" / "screening.ini"
    cfg = load_config(path=str(path))
    box = cfg.search
    for seed in range(16):
        out = tmp_path / str(seed)
        assert cli.main(["solve", "--config", str(path), "--seed", str(seed), "--out", str(out)]) == 0
        menu = harness._read_menu_csv(out / "solve_menu.csv", 2, 2)
        grid = sample_scenario(cfg, np.random.default_rng(seed)).grid
        assert fz.check_full(menu, grid).feasible
        assert not np.all((menu.b == box.b_max) & (menu.f == box.f_max))
        assert len(set(zip(menu.b.ravel().tolist(), menu.f.ravel().tolist()))) >= 2
        assert menu.r.max() < cfg.training.r_max


@pytest.mark.parametrize("text", [
    "[search]\ngrid_points = 1\n",
    "[search]\ngrid_points = 1000\n",
    "[scenario]\nm = 3\n",
    "[training]\nepisodes = 0\n",
    "[scenario]\ntheta1_range = 100, 200\ntheta2_range = 10, 50\n",
    "[training]\nbuffer_capacity = 0\n",
    "[training]\nhidden_width = 0\n",
    "[training]\nhidden_layers = -1\n",
    "[training]\nr_max = -5\n",
    "[search]\nb_max = inf\n",
    "[training]\ntau = nan\n",
    "[search]\nrefine_iters = -3\n",
    "[pt]\nkappa = -1\n",
    "[training]\ndiffusion_steps = 0\n",
    "[training]\ntau = 3\n",
    "[training]\ngamma = -5\n",
    "[training]\nactor_lr = -1\n",
    "[training]\ncritic_lr = 0\n",
    "[scenario]\nresolution = 0\n",
    "[scenario]\nframerate = -90\n",
    "[scenario]\nt_th = -1\n",
    "[scenario]\nbandwidth_unit_hz = 0\n",
    "[scenario]\nn_sellers = 0\n",
    "[scenario]\ntheta1_range = -1, 100\n",
    "[scenario]\nmu_range = -1, 0.5\n",
    "episodes = 4\n",
    "[training]\nepisodes = 4\n[training]\nsteps = 2\n",
    "[training]\nepisodes = 4\nepisodes = 5\n",
])
def test_cli_unusable_config_exits_2(tmp_path, capsys, text):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(text)
    err = _cli_fails_cleanly(["train", "--config", str(cfgfile), "--out", str(tmp_path)], capsys)
    assert err.startswith("error: bad config: "), err


# integers past int64 reach float division (n_sellers in the state) and list
# repetition (the hidden layers); 2**47 int64 indices (1 PiB) exceed any
# address space, so the replay buffer's draw fails at once
@pytest.mark.parametrize("text, prefix", [
    (f"[scenario]\nn_sellers = {10**400}\n", "error: bad config: [scenario] n_sellers "),
    (f"[training]\nhidden_layers = {10**30}\n", "error: bad config: [training] hidden_layers "),
    (f"[training]\nepisodes = 1\nsteps = 1\nbatch_size = {2**47}\n", "error: bad input: "),
    # the actor's input would hold 2**47 step entries, and the noise schedule
    # would be a 2**47-level linspace: both are refused at load
    (f"[training]\ndiffusion_steps = {2**47}\n", "error: bad config: [training] "),
], ids=["n_sellers", "hidden_layers", "batch_size", "diffusion_steps"])
def test_cli_train_on_out_of_range_sizes_exits_2(tmp_path, capsys, text, prefix):
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(text)
    err = _cli_fails_cleanly(["train", "--config", str(cfgfile), "--out", str(tmp_path / "out")],
                             capsys)
    assert err.startswith(prefix), err


# hidden_width = 30000 with the default 3 hidden layers is about 1.8e9 actor
# parameters (14.4 GB), which a machine can partly allocate; 2**24 is about
# 2**49 of them (4 PiB), past the 128 TiB address space.  load_config must
# refuse both before any network exists, so neither is ever built
@pytest.mark.parametrize("width", [30000, 2**24])
def test_load_rejects_networks_above_the_parameter_cap(tmp_path, capsys, width):
    text = f"[training]\nhidden_width = {width}\n"
    with pytest.raises(ValueError, match=rf"^\[training\] hidden_width = {width}, hidden_layers = 3 "):
        load_config(text=text)
    cfgfile = tmp_path / "cfg.ini"
    cfgfile.write_text(text)
    err = _cli_fails_cleanly(["train", "--config", str(cfgfile), "--out", str(tmp_path / "out")],
                             capsys)
    assert err.startswith(f"error: bad config: [training] hidden_width = {width}, "), err


def test_load_bounds_the_actor_input_before_building_the_schedule(monkeypatch):
    # 10**9 diffusion steps would make the load-time noise schedule an 8 GB
    # linspace; the parameter bound refuses them first, so it is never built
    def never(self):
        raise AssertionError("the noise schedule was built")

    monkeypatch.setattr(df.GdmHyperparams, "schedule", never)
    with pytest.raises(ValueError, match=r"^\[training\] .* diffusion_steps = 1000000000 need "):
        load_config(text=f"[training]\ndiffusion_steps = {10**9}\n")


def test_cli_memory_error_while_loading_exits_2(tmp_path, capsys, monkeypatch):
    # the parameter bound now refuses every schedule too large to allocate,
    # so a failed load-time allocation is simulated
    def no_memory(self):
        raise MemoryError("cannot allocate the noise schedule")

    monkeypatch.setattr(df.GdmHyperparams, "schedule", no_memory)
    err = _cli_fails_cleanly(["solve", "--out", str(tmp_path / "out")], capsys)
    assert err.startswith("error: bad config: cannot allocate"), err


_MENU_ROWS = ["m,n,b,f,r", "0,0,1.0,0.5,2.0", "0,1,1.0,0.5,2.0", "1,0,1.0,0.5,2.0",
              "1,1,1.0,0.5,2.0"]


@pytest.mark.parametrize("rows", [
    ["m,n,b,f,R"] + _MENU_ROWS[1:],                          # wrong header
    _MENU_ROWS[:2] + ["0,1,1.0,0.5"] + _MENU_ROWS[3:],       # wrong column count
    _MENU_ROWS[:2] + ["0,1,1.0,x,2.0"] + _MENU_ROWS[3:],     # non-numeric
    _MENU_ROWS[:2] + ["0,1,1.0,nan,2.0"] + _MENU_ROWS[3:],   # non-finite
    _MENU_ROWS[:3],                                          # missing cells
    _MENU_ROWS + ["1,1,1.0,0.5,2.0"],                        # duplicate cell
    _MENU_ROWS + ["2,0,1.0,0.5,2.0"],                        # out of range
], ids=["header", "columns", "non-numeric", "non-finite", "missing", "duplicate", "out-of-range"])
def test_cli_verify_rejects_malformed_menu(tmp_path, capsys, rows):
    path = tmp_path / "menu.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        harness._read_menu_csv(path, 2, 2)
    _cli_fails_cleanly(["verify", "--menu", str(path), "--out", str(tmp_path)], capsys)


def test_cli_verify_missing_menu_file_exits_2(tmp_path, capsys):
    _cli_fails_cleanly(["verify", "--menu", str(tmp_path / "absent.csv"), "--out", str(tmp_path)],
                       capsys)
