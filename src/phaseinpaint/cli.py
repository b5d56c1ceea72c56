"""Command line interface.

Subcommands:

* ``phase-inpaint sweep --kind ratio|hole --config cfg.json --out dir``
  runs one benchmark sweep and writes results.csv / summary.csv /
  curves.csv / config.json into the output directory.
* ``phase-inpaint solve --obs dir --method gli|pli|pci|rpi`` reconstructs a
  single serialized observation set and writes the signal as CSV.

Exit code 0 on completion, 2 on configuration errors, including an ``--out``
that cannot be written, which is checked before any solve starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .observe import load_observations
from .sweeps import (
    ExperimentConfig,
    METHODS,
    config_from_dict,
    emit,
    reconstruct,
    run_sweep,
)

CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phase-inpaint",
        description="Reconstruct signals from time-frequency magnitudes and partial phases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a benchmark sweep")
    sweep.add_argument("--kind", choices=("ratio", "hole"), required=True)
    sweep.add_argument("--config", type=Path, default=None, help="JSON config file")
    sweep.add_argument("--out", type=Path, required=True, help="output directory")
    sweep.add_argument("--workers", type=int, default=None)
    sweep.add_argument("--methods", type=str, default=None, help="comma-separated subset")

    solve = sub.add_parser("solve", help="reconstruct one serialized observation set")
    solve.add_argument("--obs", type=Path, required=True, help="observation directory")
    solve.add_argument("--method", choices=METHODS, required=True)
    solve.add_argument("--out", type=Path, default=None, help="output CSV (default: stdout)")
    solve.add_argument("--seed", type=int, default=0, help="seed for randomized methods")
    return parser


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ValueError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
    sweep = "ratio" if args.kind == "ratio" else "hole_width"
    if data.get("sweep", sweep) != sweep:
        raise ValueError(f"config sweep {data['sweep']!r} contradicts --kind {args.kind}")
    overrides: dict = {"sweep": sweep}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.methods is not None:
        overrides["methods"] = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    return dataclasses.replace(config_from_dict(data), **overrides)


def _cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    rows = run_sweep(cfg)
    paths = emit(rows, args.out, cfg)
    print(f"wrote {paths['results']}")
    return 0


def _cmd_solve(args) -> int:
    try:
        obs = load_observations(args.obs)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: cannot load observations: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    out = args.out
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        print(f"config error: --out {out} is not a file in an existing directory", file=sys.stderr)
        return CONFIG_ERROR
    x_hat, converged = reconstruct(args.method, obs, args.seed, ExperimentConfig())
    lines = [f"{v.real:.17g},{v.imag:.17g}" for v in x_hat]
    body = "re,im\n" + "\n".join(lines) + "\n"
    if out is not None:
        out.write_text(body)
        print(f"wrote {out} (converged={converged})")
    else:
        sys.stdout.write(body)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve" and args.seed < 0:
            parser.error(f"--seed must be at least 0, got {args.seed}")
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    return _cmd_solve(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
