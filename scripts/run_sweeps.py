#!/usr/bin/env python3
"""Hyperparameter sweeps: keep fraction, queue capacity, or text batch
size, each across a shared seed set. Wraps the sweep command with a
desk-scale config so a full grid finishes in minutes."""

import argparse

from pairsieve.config import comparison_config
from pairsieve.errors import ConfigError
from pairsieve.harness import DEFAULT_GRIDS, cmd_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--axis", choices=sorted(DEFAULT_GRIDS), default="lambda")
    ap.add_argument("--values", help="comma-separated grid (defaults per axis)")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--n-pairs", type=int, default=2500)
    ap.add_argument("--out-dir", default="out/sweeps")
    args = ap.parse_args()

    cfg = comparison_config(0, n_pairs=args.n_pairs, n_val=min(500, args.n_pairs // 5))
    cfg.mlm_on = args.axis == "text_batch"
    cfg.train.filter_epochs_max = 6
    cfg.train.epochs = 16

    values = args.values.split(",") if args.values else None
    try:
        results = cmd_sweep(cfg, args.axis, values, args.seeds.split(","), args.out_dir)
    except ConfigError as e:
        ap.error(str(e))
    for row in results:
        extra = f" step_time={row['step_time_s']*1e6:.0f}us" if "step_time_s" in row else ""
        print(
            f"{args.axis}={row['value']} seed={row['seed']}: "
            f"f1={row['val_f1']:.3f} R@1={row['val_r1_b2a']:.3f} "
            f"noisy={row['frac_noisy']:.3f}{extra}"
        )
    print(f"comparison CSV under {args.out_dir}/sweep_{args.axis}.csv")


if __name__ == "__main__":
    main()
