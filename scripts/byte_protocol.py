#!/usr/bin/env python3
"""The byte protocol: run a fixed list of CLI commands against one checkout, then compare two such runs.

A change that should not alter behaviour must leave every run output
byte-identical. Run the commands against the parent commit's ``src/`` and
against the change's, then compare:

    python3 scripts/byte_protocol.py --src <parent>/src --out <dir>/parent
    python3 scripts/byte_protocol.py --src <change>/src --out <dir>/change
    python3 scripts/byte_protocol.py --compare <dir>/parent <dir>/change

``--out`` (a new or empty directory) receives each command's output
directory, ``commands/<name>.{stdout,stderr,exit}`` for each command, and
``digests.json``, the sha256 of every other file. ``--compare`` prints each
file that differs or exists on one side only and exits 1 if there is any.
It masks only the measured wall-clock times: the ``value`` column of each
``timing.csv`` and the ``step_time_s`` column of each ``sweep_<axis>.csv``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

_HEADLINE = ["--set", "stop.enabled=false", "--set", "train.filter_epochs_max=11", "--set", "train.epochs=12"]

# (name, pairsieve CLI arguments), run in order from inside the --out directory.
COMMANDS: list[tuple[str, list[str]]] = [
    ("pre", ["pretrain", "--seed", "0", *_HEADLINE, "--out-dir", "pre"]),
    # set-up-pair scoring, memoryless totals
    ("pre0", ["pretrain", "--seed", "0", *_HEADLINE, "--set", "shadow_refresh_on=false", "--set", "train.alpha=0",
              "--out-dir", "pre0"]),
    # acceptance criterion 15's config
    ("c15", ["pretrain", "--seed", "8", "--set", "data.world_seed=null", "--set", "data.n_pairs=600",
             "--set", "n_val=100", "--set", "teacher.n_pairs=400", "--set", "teacher.steps=150",
             "--set", "distill.corpus_size=512", "--set", "distill.held_out=128", "--set", "distill.steps=300",
             "--set", "train.epochs=3", "--set", "train.batch_pairs=64", "--out-dir", "c15"]),
    ("swq", ["sweep", "--axis", "queue", "--values", "512,4096", "--set", "filtering_on=false", "--seeds", "0",
             "--seed", "0", "--out-dir", "swq"]),
    ("swl", ["sweep", "--axis", "lambda", "--values", "0.8,0.9", "--seeds", "0,1", "--set", "data.n_pairs=1500",
             "--set", "n_val=200", "--set", "train.epochs=4", "--set", "teacher.steps=200",
             "--set", "distill.steps=300", "--out-dir", "swl"]),
    ("dis", ["distill", "--seed", "0", "--out-dir", "dis"]),
    ("gen", ["gen-data", "--seed", "0", "--out-dir", "gen"]),
    ("ev", ["eval", "--seed", "0", "--checkpoint", "pre/checkpoints", "--data-dir", "gen", "--out-dir", "ev"]),
    # eval without --data-dir regenerates gen's data, so its eval.csv equals ev's
    ("evr", ["eval", "--seed", "0", "--checkpoint", "pre/checkpoints", "--out-dir", "evr"]),
    # gen_eval's size: recall over 5000 validation pairs scores many blocks
    ("gen50k", ["gen-data", "--seed", "7", "--set", "data.n_pairs=50000", "--out-dir", "gen50k"]),
    ("ev50k", ["eval", "--seed", "7", "--checkpoint", "pre/checkpoints", "--data-dir", "gen50k",
               "--set", "n_val=5000", "--out-dir", "ev50k"]),
    ("genv", ["gen-data", "--seed", "3", "--set", "data.vocab=100", "--set", "data.seq_len=10",
              "--set", "data.token_coords=3", "--out-dir", "genv"]),
]

DIGESTS = "digests.json"


def run(src: Path, out: Path) -> int:
    """Run every command against ``src``; return how many exited nonzero."""
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    logs = out / "commands"
    logs.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    failed = 0
    for name, args in COMMANDS:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pairsieve", *args], cwd=out, env=env, capture_output=True)
        (logs / f"{name}.stdout").write_bytes(proc.stdout)
        (logs / f"{name}.stderr").write_bytes(proc.stderr)
        (logs / f"{name}.exit").write_text(f"{proc.returncode}\n")
        failed += proc.returncode != 0
        print(f"{name}: exit {proc.returncode}, {time.perf_counter() - start:.1f} s", flush=True)
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    (out / DIGESTS).write_text(json.dumps(digests, indent=1) + "\n")
    print(f"{len(digests)} files, digests in {out / DIGESTS}")
    return failed


def _masked_column(name: str) -> str | None:
    if name == "timing.csv":
        return "value"
    if name.startswith("sweep_") and name.endswith(".csv"):
        return "step_time_s"
    return None


def _comparable(path: Path) -> bytes | list[list[str]]:
    """The file's bytes, or for a file holding wall-clock times its CSV rows with that column masked."""
    data = path.read_bytes()
    column = _masked_column(path.name)
    if column is None:
        return data
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if not rows or column not in rows[0]:
        return data
    index = rows[0].index(column)
    return [row[:index] + ["*"] + row[index + 1 :] if len(row) > index else row for row in rows]


def compare(a: Path, b: Path) -> list[str]:
    """One line for each file that differs between two protocol outputs or exists in one only."""
    def files(root: Path) -> set[str]:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()} - {DIGESTS}

    in_a, in_b = files(a), files(b)
    problems = [f"only in {a}: {f}" for f in sorted(in_a - in_b)]
    problems += [f"only in {b}: {f}" for f in sorted(in_b - in_a)]
    problems += [f"differs: {f}" for f in sorted(in_a & in_b) if _comparable(a / f) != _comparable(b / f)]
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", type=Path, help="a checkout's src/ directory to run the commands against")
    ap.add_argument("--out", type=Path, help="new or empty directory for the outputs")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"), help="two --out directories to compare")
    args = ap.parse_args(argv)
    if args.compare:
        if args.src or args.out:
            ap.error("--compare takes no --src or --out")
        a, b = args.compare
        problems = compare(a, b)
        for line in problems:
            print(line)
        print(f"{len(problems)} differences (timing.csv values and step_time_s masked)")
        return 1 if problems else 0
    if not (args.src and args.out):
        ap.error("give --src and --out, or --compare A B")
    return 1 if run(args.src, args.out) else 0


if __name__ == "__main__":
    sys.exit(main())
