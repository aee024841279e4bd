"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at its smallest size through ``run.py``'s own entry
point, untraced and traced, and checks that each metric ``BENCHMARK.json``
names is emitted with its unit.  Then checks that the answer checks reject
a perturbed menu, a perturbed objective and a broken training log, and that
a task that raises counts as failed.  Exits non-zero on the first failure.
Last, it reports whether ``solver.refine_local`` still emits a non-monotone
menu on a known 2 x 3 scenario, the defect that keeps it out of
``solve-2x3``; that report does not fail the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SMALL_TRAIN = {"episodes": 3, "batch_size": 16}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def emitted(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    expect(code == 0, f"run.py {' '.join(argv)} exits 0")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_emission(wl) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = emitted(["--workload", wl.name, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
        expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
               f"{wl.name} trace={trace}: every task passes its checks")
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        expect(got == want, f"{wl.name} trace={trace}: emits exactly the {key} metrics with units")
        expect(all(isinstance(v["value"], float) for v in out["metrics"].values()),
               f"{wl.name} trace={trace}: every value is a number")


def check_solve_checks(workloads) -> None:
    from edgecontract import feasibility, solver
    from edgecontract.econ import ContractMenu

    state = workloads.WORKLOADS["solve-2x2"].setup(0)
    sc, sp = state.scenarios[0], state.spec
    grid_res = solver.solve_grid(sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    res = solver.refine_local(grid_res, sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    ref = state.reference(0)[0]
    recorded = state.recorded[0] if state.recorded else None
    expect(recorded is not None, "seed 0 has a recorded grid objective")

    def failures(result, grid_obj=grid_res.objective):
        report = feasibility.check_full(result.menu, sc.grid)
        return workloads.solve_failures(sc, grid_obj, result, report, ref, recorded)

    expect(failures(res) == [], "the solver's answer passes")
    m = res.menu
    cheap = ContractMenu(b=m.b, f=m.f, r=m.r - 0.5)
    expect(failures(replace(res, menu=cheap)) != [], "a menu with lowered rewards fails")
    shifted = ContractMenu(b=m.b, f=m.f * 0.9, r=m.r)
    expect(failures(replace(res, menu=shifted)) != [], "a menu with changed resources fails")
    expect(failures(replace(res, objective=res.objective + 1e-6)) != [], "a perturbed objective fails")
    expect(failures(res, grid_obj=grid_res.objective - 1e-6) != [], "a perturbed grid objective fails")


def check_train_checks(workloads) -> None:
    from edgecontract import harness
    from edgecontract.econ import ContractMenu

    wl = replace(workloads.WORKLOADS["train-accept"], pool=1, shrink=SMALL_TRAIN)
    cfg = wl.setup(0).cfgs[0]
    record, _, _ = harness.run_training(cfg)
    expect(workloads.train_failures(cfg, record) == [], "a finished training run passes")
    m = record.menu
    outside = ContractMenu(b=m.b, f=m.f, r=m.r + cfg.training.r_max)
    expect(workloads.train_failures(cfg, replace(record, menu=outside)) != [],
           "a menu outside the action bounds fails")
    broken = [dict(row) for row in record.metrics]
    broken[-1]["critic_loss"] = float("nan")
    expect(workloads.train_failures(cfg, replace(record, metrics=broken)) != [],
           "a log with a non-finite value fails")
    expect(workloads.train_failures(cfg, replace(record, metrics=record.metrics[:-1])) != [],
           "a short log fails")

    class Raising:
        def run(self, i):
            raise FloatingPointError("non-finite parameters")

    plain, _, _ = workloads.run_tasks(Raising(), "train", 1, 0.0, 1)
    expect(len(plain) == 1 and plain[0].failures != [], "a task that raises counts as failed")


def report_refine_defect(workloads) -> None:
    """Say whether refine_local still breaks monotonicity on solve-2x3's
    seed 20, scenario 6 (README.md, "Answer checks")."""
    from edgecontract import feasibility, solver

    state = workloads.WORKLOADS["solve-2x3"].setup(20)
    sc, sp = state.scenarios[6], state.spec
    grid_res = solver.solve_grid(sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    res = solver.refine_local(grid_res, sp, sc.grid, sc.ch, sc.hmd, sc.sens, sc.pt)
    bad = feasibility.check_full(res.menu, sc.grid).monotonicity_violations
    if bad:
        print(f"known defect: refine_local emits a non-monotone menu on solve-2x3 seed 20 "
              f"scenario 6 ({bad}); solve-2x3 leaves refine_local out")
    else:
        print("refine_local keeps monotonicity on solve-2x3 seed 20 scenario 6: "
              "put it back into solve-2x3 (workloads.WORKLOADS)")


def main() -> int:
    workloads = run.import_program()
    small = {
        "solve-2x2": replace(workloads.WORKLOADS["solve-2x2"], pool=1),
        "solve-2x3": replace(workloads.WORKLOADS["solve-2x3"], pool=1),
        "train-accept": replace(workloads.WORKLOADS["train-accept"], pool=1, shrink=SMALL_TRAIN),
    }
    expect(set(small) == {w["name"] for w in BENCHMARK["workloads"]},
           "the self-test covers every workload in BENCHMARK.json")
    full = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update(small)
    try:
        for wl in small.values():
            check_emission(wl)
    finally:
        workloads.WORKLOADS.update(full)
    check_solve_checks(workloads)
    check_train_checks(workloads)
    print("selftest: all checks passed")
    report_refine_defect(workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
