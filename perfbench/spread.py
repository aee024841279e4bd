"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve-2x2 --seeds 0-9 --trace 0 \\
        [--seconds 25] [--out perfbench/out/runs.jsonl]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the quartile distance as a share of the median.  With ``--out`` each run's
result and provenance record is appended as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    seconds = args.seconds or json.loads(BENCHMARK.read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        record = next((json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")), None)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with args.out.open("a") as fh:
                fh.write(json.dumps({"result": result, "record": record}) + "\n")

    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else 0.0
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
