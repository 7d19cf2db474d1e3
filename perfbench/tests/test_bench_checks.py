import csv
import json
import math

import pytest

from workloads import check_gen_eval, check_noise_removal, check_queue_sweep


def _write_run(run_dir, counts, frac_noisy):
    run_dir.mkdir()
    cfg = {"train": {"keep_fraction": 0.9}, "data": {"n_pairs": 110}, "n_val": 10}
    (run_dir / "config.json").write_text(json.dumps(cfg))
    with open(run_dir / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["run_id", "epoch", "metric", "value"])
        w.writerow(["r", 0, "distill_held_mse", repr(0.01)])
        for epoch, (c, fn) in enumerate(zip(counts, frac_noisy), start=1):
            w.writerow(["r", epoch, "retained_count", repr(float(c))])
            w.writerow(["r", epoch, "frac_noisy", repr(fn)])
            w.writerow(["r", epoch, "retention_noisy", "nan"])


def _good_counts():
    counts, n = [], 100
    for _ in range(11):
        n = math.ceil(0.9 * n)
        counts.append(n)
    return counts + [n]


FALLING = [0.3 - 0.02 * e for e in range(12)]


def test_noise_removal_accepts_a_correct_run(tmp_path):
    _write_run(tmp_path / "run", _good_counts(), FALLING)
    assert check_noise_removal(tmp_path / "run") == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda c, f: (c[:5] + [c[5] + 1] + c[6:], f),  # one prune off by one
        lambda c, f: (c[:11] + [c[10] - 1], f),  # pruned after filtering stopped
        lambda c, f: (c[:11], f[:11]),  # an epoch missing
        lambda c, f: (c, f[:11] + [f[0]]),  # noise never fell
    ],
)
def test_noise_removal_rejects_doctored_runs(tmp_path, doctor):
    counts, frac = doctor(_good_counts(), FALLING)
    _write_run(tmp_path / "run", counts, frac)
    assert check_noise_removal(tmp_path / "run")


def _write_sweep(out, rows):
    out.mkdir(exist_ok=True)
    with open(out / "sweep_queue.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["axis", "value", "seed", "val_f1", "step_time_s"])
        w.writerows(rows)


def test_queue_sweep_accepts_and_rejects(tmp_path):
    good = [["queue", 512, 1, 0.99, 0.001], ["queue", 4096, 1, 0.98, 0.01]]
    _write_sweep(tmp_path, good)
    assert check_queue_sweep(tmp_path) == []
    _write_sweep(tmp_path, good[:1])
    assert check_queue_sweep(tmp_path)
    _write_sweep(tmp_path, [good[0], ["queue", 4096, 1, "nan", 0.01]])
    assert check_queue_sweep(tmp_path)


@pytest.fixture
def gen_output(tmp_path):
    from pairsieve.config import RunConfig
    from pairsieve.data import generate_dataset
    from pairsieve.harness import cmd_gen_data
    from pairsieve.metrics import write_metrics_csv

    cfg = RunConfig().with_seed(3)
    cfg.data.n_pairs = 50
    cmd_gen_data(cfg, tmp_path / "data")
    (tmp_path / "eval").mkdir()
    write_metrics_csv(tmp_path / "eval" / "eval.csv", "r", [(0, "val_f1", 0.9)])
    return tmp_path, generate_dataset(cfg.data)


def test_gen_eval_accepts_fresh_output(gen_output):
    out, reference = gen_output
    assert check_gen_eval(out, reference) == []


def test_gen_eval_rejects_a_flipped_vector_bit(gen_output):
    out, reference = gen_output
    path = out / "data" / "x_b.ecst"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))
    assert any("x_b" in p for p in check_gen_eval(out, reference))


def test_gen_eval_rejects_doctored_manifest(gen_output):
    out, reference = gen_output
    path = out / "data" / "manifest.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    victim = next(r for r in rows if r["oracle_label"] == "good")
    victim["oracle_label"] = "noisy"
    rows[-1]["tokens"][0] ^= 1
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems = check_gen_eval(out, reference)
    assert any("label counts" in p for p in problems)
    assert any("tokens" in p for p in problems)


def test_gen_eval_rejects_non_finite_eval(gen_output):
    from pairsieve.metrics import write_metrics_csv

    out, reference = gen_output
    write_metrics_csv(out / "eval" / "eval.csv", "r", [(0, "val_f1", float("nan"))])
    assert check_gen_eval(out, reference)
