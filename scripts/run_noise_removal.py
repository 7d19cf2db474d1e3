#!/usr/bin/env python3
"""Noise-removal experiment: filter a 10k noisy set for 11 epochs and
print the retained-set composition at full, two-thirds and one-third
retention, per seed. Full retention is the unpruned training set (epoch
0): epoch 1 already reports the set after its first prune."""

import argparse
from pathlib import Path

from pairsieve.config import noise_removal_config
from pairsieve.data import label_plan, split_rows, write_csv
from pairsieve.harness import pretrain
from pairsieve.metrics import noise_composition


def seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=seed_list, default="0,1,2,3,4")
    ap.add_argument("--n-pairs", type=int, default=10000)
    ap.add_argument("--out-dir", default="out/noise_removal")
    args = ap.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in args.seeds:
        cfg = noise_removal_config(seed, args.n_pairs)
        report = pretrain(cfg, out_dir=out / f"seed{seed}")
        labels = label_plan(cfg.data)
        train_labels = labels[split_rows(labels, cfg.n_val, cfg.seed)[0]]
        snapshots = {"100%": (0, len(train_labels), noise_composition(train_labels))}
        for epoch, count in report.series("retained_count"):
            for name, cut in (("66%", 0.66), ("33%", 0.33)):
                if name not in snapshots and count / len(train_labels) <= cut:
                    comp = {tag: report.metric(epoch, f"frac_{tag}") for tag in ("good", "clean", "noisy")}
                    snapshots[name] = (epoch, int(count), comp)
        print(f"seed {seed}:")
        for name, (epoch, retained, comp) in snapshots.items():
            row = {"seed": seed, "snapshot": name, "epoch": epoch, "retained": retained, **comp}
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
