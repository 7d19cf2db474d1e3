"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload noise_removal --seeds 1-10 [--seconds 20]

Runs ``perfbench/run.py`` once per seed, one run at a time, from the
current directory (a checkout root) and prints, per metric, the median
and the quartile spread (q3 - q1 of ``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        print(f"{name:18s} {median(vals):12.6g} {quartile_spread(vals):8.4f} {bounds.get(name, float('nan')):6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
