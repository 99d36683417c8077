"""Command-line front end: run experiments, list presets, emit plot scripts.

Exit codes: 0 success, 2 configuration error, 3 invariant violation during
a run (for example a coherent state exceeding the tail-mass budget).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .experiments import (
    ConfigError,
    InvariantViolation,
    PRESETS,
    emit_plot_script,
    generator_norm,
    list_presets,
    parse_config,
    preset_config,
    run_experiment,
    write_csv,
)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: each ``parse_args`` returns a fresh namespace and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="zenolab",
        description="Numerical sweeps for mixing, Zeno and strong-damping limits.",
    )
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a config file or a named preset")
    run_p.add_argument("config", help="path to an INI config, or a preset name")

    sub.add_parser("presets", help="list the built-in presets")

    plot_p = sub.add_parser("plot", help="emit a matplotlib script for a CSV")
    plot_p.add_argument("csv", help="path to a CSV produced by `run`")
    return parser


def _resolve_config(arg: str):
    if os.path.exists(arg):
        return parse_config(arg)
    if arg in PRESETS:
        return preset_config(arg)
    raise ConfigError("config", f"{arg!r} is neither a readable file nor a preset name")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, desc in list_presets():
                print(f"{name:22s} {desc}")
            return 0
        if args.command == "plot":
            path = emit_plot_script(args.csv)
            print(f"wrote {path}")
            return 0
        # run
        cfg = _resolve_config(args.config)
        if args.seed is not None:
            from dataclasses import replace

            cfg = replace(cfg, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        rows = run_experiment(cfg)
        out_name = cfg.output_path or f"{cfg.experiment_id}.csv"
        out_path = os.path.join(args.out, out_name)
        write_csv(rows, out_path)
        fits = sorted(
            {(r.state_id, r.fitted_c, r.fitted_p) for r in rows if r.fitted_p is not None}
        )
        print(f"{cfg.experiment_id}: wrote {len(rows)} rows to {out_path}")
        for state_id, fitted_c, fitted_p in fits:
            print(f"  {state_id}: fitted C={fitted_c:.4g}, p={fitted_p:.4g}")
        if cfg.kind in ("zeno", "damping"):
            print(f"  ||L|| (exact 1->1 norm): {generator_norm(cfg):.6g}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
