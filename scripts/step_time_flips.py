#!/usr/bin/env python3
"""How often acceptance criterion 8's step-time check flips on this host.

Runs the criterion's ``benchmark_step_time`` call (its config, queue
sizes 8, 64, 512 and 4096, 40 steps, best of 5 blocks) ``--runs`` times in
one process, against whichever ``pairsieve`` is importable. A run flips
when its times are not monotone in the queue size, which fails the
criterion. Prints each run's four times in microseconds, then the flip
count and each size's median and quartiles.

    PYTHONPATH=src python scripts/step_time_flips.py --runs 36
"""

import argparse

import numpy as np

from pairsieve.config import RunConfig
from pairsieve.data import GenConfig
from pairsieve.harness import benchmark_step_time

SIZES = (8, 64, 512, 4096)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=36)
    args = ap.parse_args()

    cfg = RunConfig(data=GenConfig(n_pairs=1000, seed=0), seed=0)
    runs, flips = [], 0
    for i in range(args.runs):
        times = [t * 1e6 for t in benchmark_step_time(cfg, SIZES, steps=40, reps=5)]
        flipped = not all(a <= b for a, b in zip(times, times[1:]))
        flips += flipped
        runs.append(times)
        print(f"run {i:3d}: " + " ".join(f"{t:8.0f}" for t in times) + ("  FLIP" if flipped else ""), flush=True)

    print(f"flips {flips}/{args.runs}")
    q1, med, q3 = np.percentile(np.array(runs), [25, 50, 75], axis=0)
    for size, lo, mid, hi in zip(SIZES, q1, med, q3):
        print(f"Q={size:<5d} median {mid:8.0f} us  quartiles {lo:.0f}-{hi:.0f} us")


if __name__ == "__main__":
    main()
