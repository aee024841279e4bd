"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-2x2 --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory.  With ``--trace 0`` the run times whole tasks untraced and
reports the end-to-end metrics; with ``--trace 1`` it runs every task twice,
untraced and traced, and reports per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# (metric, unit, better) reported by untraced runs; the first three are the
# gated end-to-end metrics, the rest are printed for the workloads they fit
END_TO_END = [("setup_s", "s", "lower"), ("task_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")]


def cap_blas_threads() -> int:
    """Cap every BLAS pool at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this process, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_program():
    """Import the benchmark modules against the checkout's own ``src``."""
    if not (SRC / "edgecontract" / "__init__.py").is_file():
        raise ImportError(f"no edgecontract package under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgecontract
    import workloads

    if Path(edgecontract.__file__).resolve().parent != SRC / "edgecontract":
        raise ImportError(f"edgecontract imported from {edgecontract.__file__}, not {SRC}")
    return workloads


def probe_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Set-up times of fresh processes (import, config, inputs, agents),
    each with the calibration loop's slowdown in that process."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        elapsed, slowdown = out.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(slowdown)))
    return times


def quality_metrics(kind: str, outcomes) -> list[tuple[str, float, str]]:
    """The workload's answer-quality numbers over its distinct inputs."""
    q = list({o.index: o.quality for o in outcomes if o.quality}.values())
    if not q:
        return []
    mean = lambda key: statistics.fmean(x[key] for x in q if key in x)  # noqa: E731
    if kind == "solve":
        return [("solve_objective", mean("objective"), "PT utility")]
    return [
        ("train_final_reward", mean("final_mean_reward"), "reward"),
        ("train_u_pt", mean("u_pt"), "PT utility"),
        ("train_menu_violations", mean("menu_violations"), "count"),
    ]


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    nproc = cap_blas_threads()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        elapsed = time.perf_counter() - t0
        print(f"{elapsed!r} {workloads.slowdown(wl.kind)!r}")
        return 0

    import numpy as np

    lines: list[tuple[str, float, str]] = []
    if args.trace:
        setup_tracer = workloads.make_tracer()
        setup_tracer.install()
        try:
            state = wl.setup(args.seed)
        finally:
            setup_tracer.uninstall()
        tracer = workloads.make_tracer()
        plain, traced, warm = workloads.run_tasks(state, wl.kind, wl.pool, args.seconds, 1,
                                                  tracer)
        layer = workloads.layer_metrics(tracer, traced, plain, setup_tracer)
        units = {name: unit for name, unit, _ in workloads.PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        spans_file = HERE / "out" / f"spans-{wl.name}-seed{args.seed}.csv"
        tracer.write_csv(spans_file)
        outcomes = warm + plain + traced
        extra = {"spans_file": str(spans_file.relative_to(HERE.parent)), "spans": len(tracer.spans)}
    else:
        state = wl.setup(args.seed)
        setup = probe_setup(wl.name, args.seed)
        plain, _, warm = workloads.run_tasks(state, wl.kind, wl.pool, args.seconds, wl.pool)
        values = {
            "setup_s": statistics.median(s / k for s, k in setup),
            "task_s": statistics.median(o.norm_s for o in plain),
            "peak_rss_mb": warm[0].peak_rss_mb,
        }
        wall_s = statistics.median(o.elapsed_s for o in plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        outcomes = warm + plain
        if wl.kind == "solve":
            lines.append(("solve_s", values["task_s"], "s"))
        else:
            sizes = wl.sizes(state)
            lines.append(("train_steps_per_s",
                          sizes["episodes"] * sizes["steps"] / values["task_s"], "1/s"))
        lines.append(("task_wall_s", wall_s, "s"))
        lines += quality_metrics(wl.kind, plain)
        # (wall seconds, slowdown) per set-up probe and per timed task
        extra = {"setup_samples": setup,
                 "warmup_s": warm[0].elapsed_s,
                 "task_samples": [(o.elapsed_s, o.slowdown) for o in plain]}

    failed = [o for o in outcomes if o.failures]
    lines.append(("failed_frac", len(failed) / len(outcomes), "ratio"))
    for o in failed:
        print(f"FAILED task {o.index}: {'; '.join(o.failures)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value, unit in lines:
        print(f"{name} = {value:.6g} {unit}")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "config_hash": state.config_hashes(),
        "sizes": wl.sizes(state),
        "tasks": len(outcomes),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads_cap": {v: os.environ[v] for v in BLAS_VARS},
        "reported": {name: value for name, value, _ in lines},
        **extra,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
