"""The benchmark's workloads: the processes one job runs, its output check,
and the quality figures it reports.

A job is a list of steps, each one fresh child process: either a pairsieve
CLI call (``("cli", [args])``) or the eval fixture (``("fixture", dir)``).
Every output a job writes goes under its ``out`` directory.

Checkers return a list of problems; an empty list means the output is
correct. They parse the files themselves (CSV, JSON lines, the ECST
header) rather than through pairsieve's readers, so a reader bug cannot
hide a writer bug.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

GEN_PAIRS = 50000
EVAL_VAL = 5000
SWEEP_QUEUES = (512, 4096)


def read_metrics_csv(path: Path) -> dict[tuple[int, str], float]:
    """(epoch, metric) -> value from a long-format metrics file."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {(int(r["epoch"]), r["metric"]): float(r["value"]) for r in rows}


def _epochs(metrics: dict[tuple[int, str], float], name: str) -> list[tuple[int, float]]:
    return sorted((e, v) for (e, m), v in metrics.items() if m == name)


def check_noise_removal(run_dir: Path, epochs: int = 12, filter_epochs: int = 11) -> list[str]:
    """metrics.csv covers every epoch, pruning follows ceil(keep * n) while
    filtering runs and stops afterwards, and the run removed noise."""
    try:
        cfg = json.loads((run_dir / "config.json").read_text())
        metrics = read_metrics_csv(run_dir / "metrics.csv")
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable run output: {e}"]
    problems = []
    counts = _epochs(metrics, "retained_count")
    if [e for e, _ in counts] != list(range(1, epochs + 1)):
        return [f"retained_count epochs {[e for e, _ in counts]}, expected 1..{epochs}"]
    keep = cfg["train"]["keep_fraction"]
    n = cfg["data"]["n_pairs"] - cfg["n_val"]
    for epoch, value in counts:
        expected = math.ceil(keep * n) if epoch <= filter_epochs else n
        if value != expected:
            problems.append(f"epoch {epoch}: retained_count {value}, expected {expected}")
        n = expected
    noisy = dict(_epochs(metrics, "frac_noisy"))
    if len(noisy) != epochs or not noisy[epochs] < noisy[1]:
        problems.append(f"frac_noisy did not fall: {noisy.get(1)} -> {noisy.get(epochs)}")
    return problems


def check_queue_sweep(out: Path, values: tuple[int, ...] = SWEEP_QUEUES) -> list[str]:
    """One sweep row per queue value, in order, every value finite."""
    try:
        with open(out / "sweep_queue.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as e:
        return [f"unreadable sweep output: {e}"]
    problems = []
    if [r.get("value") for r in rows] != [str(v) for v in values]:
        problems.append(f"sweep values {[r.get('value') for r in rows]}, expected {list(values)}")
    for r in rows:
        for key, raw in r.items():
            if key == "axis":
                continue
            try:
                ok = math.isfinite(float(raw))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"row value={r.get('value')}: {key}={raw!r} is not a finite number")
    return problems


def read_store(path: Path) -> np.ndarray:
    """Rows of an ECST file: 20-byte header (magic, version, dim, count), then float64 rows."""
    blob = path.read_bytes()
    magic, _version, dim, count = struct.unpack_from("<4sIIQ", blob)
    if magic != b"ECST" or len(blob) != 20 + 8 * dim * count:
        raise ValueError(f"{path}: not a well-formed ECST file")
    return np.frombuffer(blob, dtype="<f8", offset=20).reshape(count, dim)


def read_manifest(path: Path) -> tuple[list[int], list[str], np.ndarray]:
    ids, labels, tokens = [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            row = json.loads(line)
            ids.append(row["id"])
            labels.append(row["oracle_label"])
            tokens.append(row["tokens"])
    return ids, labels, np.array(tokens, dtype=np.int64)


def gen_config(seed: int):
    """The GenConfig that ``gen-data --seed seed --set data.n_pairs=GEN_PAIRS`` uses."""
    from pairsieve.config import RunConfig

    cfg = RunConfig().with_seed(seed)
    cfg.data.n_pairs = GEN_PAIRS
    return cfg.data


def check_gen_eval(out: Path, reference) -> list[str]:
    """Stored vectors and tokens are bit-equal to a fresh generate_dataset,
    label counts follow largest_remainder_counts, and eval wrote finite
    metrics."""
    from pairsieve.data import largest_remainder_counts

    data = out / "data"
    try:
        x_a, x_b = read_store(data / "x_a.ecst"), read_store(data / "x_b.ecst")
        ids, labels, tokens = read_manifest(data / "manifest.jsonl")
        evals = read_metrics_csv(out / "eval" / "eval.csv")
    except (OSError, ValueError, KeyError, struct.error) as e:
        return [f"unreadable gen/eval output: {e}"]
    problems = []
    for name, got, want in (
        ("x_a", x_a, reference.x_a),
        ("x_b", x_b, reference.x_b),
        ("tokens", tokens, reference.tokens),
    ):
        if got.shape != want.shape or got.tobytes() != np.ascontiguousarray(want, dtype=got.dtype).tobytes():
            problems.append(f"{name} differs from a fresh generate_dataset")
    if ids != list(range(len(reference))):
        problems.append("manifest ids are not 0..n-1")
    cfg = reference.config
    want = largest_remainder_counts(cfg.n_pairs, (cfg.f_good, cfg.f_clean, cfg.f_noisy))
    got = [labels.count(tag) for tag in ("good", "clean", "noisy")]
    if got != want:
        problems.append(f"manifest label counts {got}, expected {want}")
    if not evals or not all(math.isfinite(v) for v in evals.values()):
        problems.append("eval.csv is empty or has a non-finite value")
    return problems


def _frac_noisy_mean(metrics: dict[tuple[int, str], float]) -> float:
    values = [v for _, v in _epochs(metrics, "frac_noisy")]
    return sum(values) / len(values)


def _run_quality(metrics: dict[tuple[int, str], float]) -> dict[str, float]:
    """Quality of one pretrain run: last-epoch validation, mean retained noise."""
    last = max(e for e, _ in metrics)
    return {
        "val_r1_b2a": metrics[(last, "val_r1_b2a")],
        "val_f1": metrics[(last, "val_f1")],
        "frac_noisy_mean": _frac_noisy_mean(metrics),
        "distill_held_mse": metrics[(0, "distill_held_mse")],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int, Path], list[tuple[str, object]]]
    prepare: Callable[[int], object]  # per-run reference data for the check
    check: Callable[[Path, object], list[str]]
    quality: Callable[[Path], dict[str, float]]
    # Outputs that must be byte-identical across jobs with the same seed.
    deterministic: Callable[[Path], list[Path]]


def _noise_removal_steps(seed: int, out: Path):
    return [("cli", [
        "pretrain", "--out-dir", str(out / "run"), "--seed", str(seed),
        "--set", "stop.enabled=false",
        "--set", "train.filter_epochs_max=11",
        "--set", "train.epochs=12",
    ])]


def _queue_sweep_steps(seed: int, out: Path):
    return [("cli", [
        "sweep", "--axis", "queue", "--values", ",".join(map(str, SWEEP_QUEUES)),
        "--seeds", str(seed), "--seed", str(seed), "--out-dir", str(out),
        "--set", "filtering_on=false",
        "--set", "train.epochs=5",
    ])]


def _sweep_metrics(out: Path) -> list[Path]:
    return sorted(out.glob("queue_*_seed*/metrics.csv"))


def _queue_sweep_quality(out: Path) -> dict[str, float]:
    """The worst sweep point on each figure."""
    points = [_run_quality(read_metrics_csv(p)) for p in _sweep_metrics(out)]
    worst = {"val_r1_b2a": min, "val_f1": min, "frac_noisy_mean": max, "distill_held_mse": max}
    return {k: pick(q[k] for q in points) for k, pick in worst.items()}


def _gen_eval_steps(seed: int, out: Path):
    return [
        ("fixture", out / "checkpoint"),
        ("cli", [
            "gen-data", "--out-dir", str(out / "data"), "--seed", str(seed),
            "--set", f"data.n_pairs={GEN_PAIRS}",
        ]),
        ("cli", [
            "eval", "--checkpoint", str(out / "checkpoint"), "--data-dir", str(out / "data"),
            "--out-dir", str(out / "eval"), "--seed", str(seed),
            "--set", f"n_val={EVAL_VAL}",
        ]),
    ]


def _gen_eval_reference(seed: int):
    from pairsieve.data import generate_dataset

    return generate_dataset(gen_config(seed))


def _gen_eval_quality(out: Path) -> dict[str, float]:
    m = read_metrics_csv(out / "eval" / "eval.csv")
    _, labels, _ = read_manifest(out / "data" / "manifest.jsonl")
    return {
        "val_r1_b2a": m[(0, "val_r1_b2a")],
        "val_f1": m[(0, "val_f1")],
        "frac_noisy_mean": labels.count("noisy") / len(labels),
        "distill_held_mse": 0.0,
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "noise_removal",
            _noise_removal_steps,
            lambda seed: None,
            lambda out, ref: check_noise_removal(out / "run"),
            lambda out: _run_quality(read_metrics_csv(out / "run" / "metrics.csv")),
            lambda out: [out / "run" / "metrics.csv"],
        ),
        Workload(
            "queue_sweep",
            _queue_sweep_steps,
            lambda seed: None,
            lambda out, ref: check_queue_sweep(out),
            _queue_sweep_quality,
            _sweep_metrics,
        ),
        Workload(
            "gen_eval",
            _gen_eval_steps,
            _gen_eval_reference,
            check_gen_eval,
            _gen_eval_quality,
            lambda out: [out / "data" / n for n in ("manifest.jsonl", "x_a.ecst", "x_b.ecst")]
            + [out / "eval" / "eval.csv"],
        ),
    )
}


def fingerprint(workload: Workload, out: Path) -> str:
    """sha256 over the names and bytes of the workload's deterministic outputs."""
    h = hashlib.sha256()
    for p in workload.deterministic(out):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()
