#!/usr/bin/env python3
"""Noise-removal experiment: filter a 10k noisy set for 11 epochs and
print the retained-set composition at full, two-thirds and one-third
retention, per seed."""

import argparse
from pathlib import Path

from pairsieve.config import noise_removal_config
from pairsieve.data import write_csv
from pairsieve.harness import pretrain


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--n-pairs", type=int, default=10000)
    ap.add_argument("--out-dir", default="out/noise_removal")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        cfg = noise_removal_config(seed, args.n_pairs)
        report = pretrain(cfg, out_dir=out / f"seed{seed}")
        train_n = args.n_pairs - cfg.n_val
        snapshots = {}
        for epoch, count in report.series("retained_count"):
            frac = count / train_n
            for name, cut in (("100%", 1.01), ("66%", 0.66), ("33%", 0.33)):
                if name not in snapshots and frac <= cut:
                    snapshots[name] = epoch
        print(f"seed {seed}:")
        for name, epoch in snapshots.items():
            row = {
                "seed": seed,
                "snapshot": name,
                "epoch": epoch,
                "retained": int(report.metric(epoch, "retained_count")),
                "good": report.metric(epoch, "frac_good"),
                "clean": report.metric(epoch, "frac_clean"),
                "noisy": report.metric(epoch, "frac_noisy"),
            }
            rows.append(row)
            print(
                f"  {name:>4} retention (epoch {epoch:2d}): "
                f"good={row['good']:.3f} clean={row['clean']:.3f} noisy={row['noisy']:.3f}"
            )

    names = list(rows[0])
    write_csv(out / "composition.csv", names, ([row[k] for k in names] for row in rows))
    print(f"wrote {out / 'composition.csv'}")


if __name__ == "__main__":
    main()
