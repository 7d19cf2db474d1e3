"""Command line entry point.

Subcommands: gen-data, pretrain, distill, sweep, eval. Configs are JSON
files mirroring RunConfig; any field can be overridden from the command
line with --set section.field=value. Exits 0 on success, otherwise a
nonzero code plus one machine-readable error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, apply_override, load_config
from .errors import (
    ConfigError,
    FormatError,
    NonFiniteLoss,
    PairsieveError,
)
from . import harness

# Error category -> exit code, reported as {"error": category} on stderr.
_EXIT_CODES = [
    (ConfigError, 2),
    (FormatError, 4),
    (NonFiniteLoss, 5),
    (PairsieveError, 6),
]


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg = apply_override(cfg, key, value)
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (defaults apply when omitted)")
    p.add_argument("--out-dir", required=True, help="directory for all outputs")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument(
        "--set",
        action="append",
        metavar="FIELD=VALUE",
        help="override a config field, e.g. --set train.keep_fraction=0.8",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pairsieve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset manifest and vector stores")
    _add_common(p)

    p = sub.add_parser("pretrain", help="run the full training pipeline")
    _add_common(p)

    p = sub.add_parser("distill", help="train the teacher pair and distill the student")
    _add_common(p)

    p = sub.add_parser("sweep", help="run the pipeline across one hyperparameter axis")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=sorted(harness.SWEEP_AXES))
    p.add_argument("--values", help="comma-separated values (default grid when omitted)")
    p.add_argument("--seeds", default="0", help="comma-separated seeds, default 0")

    p = sub.add_parser("eval", help="evaluate a checkpoint directory")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="directory holding key.ecpm/query.ecpm")
    p.add_argument("--data-dir", help="gen-data output to evaluate on (default: regenerate)")

    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "gen-data":
            paths = harness.cmd_gen_data(cfg, args.out_dir)
            print(json.dumps(paths))
        elif args.command == "pretrain":
            report = harness.pretrain(cfg, out_dir=args.out_dir)
            print(
                json.dumps(
                    {
                        "run_id": report.run_id,
                        "total_steps": report.total_steps,
                        "retained": len(report.final_retained_ids),
                        "out_dir": report.out_dir,
                    }
                )
            )
        elif args.command == "distill":
            held = harness.cmd_distill(cfg, args.out_dir)
            print(json.dumps({"held_out_mse": held}))
        elif args.command == "sweep":
            values = args.values.split(",") if args.values else None
            seeds = args.seeds.split(",")
            results = harness.cmd_sweep(cfg, args.axis, values, seeds, args.out_dir)
            print(json.dumps({"rows": len(results), "out_dir": args.out_dir}))
        elif args.command == "eval":
            metrics = harness.cmd_eval(args.checkpoint, cfg, args.out_dir, args.data_dir)
            print(json.dumps({k: round(v, 6) for k, v in sorted(metrics.items())}))
    except PairsieveError as e:
        for klass, code in _EXIT_CODES:
            if isinstance(e, klass):
                print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
                return code
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
