"""Command-line interface: solve, train, verify, sweep."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .scenario import load_config


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="config file path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", type=Path, default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecontract",
        description="Contract design experiments: exact solver, diffusion policy, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("solve", "exact (bounded) monotone grid search for the optimal menu"),
        ("train", "train the diffusion contract policy"),
        ("verify", "run feasibility property suites (or re-check a menu CSV)"),
        ("sweep", "train across a preference parameter sweep"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "verify":
            p.add_argument("--menu", type=Path, default=None, help="menu CSV to re-check")
        if name == "sweep":
            p.add_argument(
                "--param", choices=tuple(harness.SWEEPS), default="u_ref",
                help="which preference parameter to sweep",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(path=str(args.config) if args.config else None)
        if args.seed is not None:
            cfg.seed = args.seed
        # from --seed or [run] seed
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out or cfg.out_dir)
    try:
        # an unusable output path fails here, before any command does its work
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return harness.cmd_solve(cfg, out)
        if args.command == "train":
            return harness.cmd_train(cfg, out)
        if args.command == "verify":
            return harness.cmd_verify(cfg, out, menu_csv=args.menu)
        # the parser admits no other command
        return harness.cmd_sweep(cfg, out, which=args.param)
    except FloatingPointError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
