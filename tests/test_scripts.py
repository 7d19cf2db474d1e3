import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pairsieve import harness
from pairsieve.config import noise_removal_config
from pairsieve.data import label_plan, split_rows
from pairsieve.metrics import noise_composition

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = Path(__file__).resolve().parents[1] / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_noise_removal_bad_seed_list_is_a_usage_error_before_any_run(tmp_path):
    script = _load("run_noise_removal")
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--seeds", "0,x", "--out-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "out").exists()


def test_noise_removal_full_retention_row_is_the_unpruned_training_set(tmp_path, capsys):
    # Epoch 1's retained_count is taken after its prune, so the 100% row comes from the label
    # plan's training rows, as epoch 0 of the run: all 800 of them, with their exact composition.
    script = _load("run_noise_removal")
    script.main(["--seeds", "0", "--n-pairs", "1300", "--out-dir", str(tmp_path)])
    cfg = noise_removal_config(0, 1300)
    labels = label_plan(cfg.data)
    train_labels = labels[split_rows(labels, cfg.n_val, cfg.seed)[0]]
    with open(tmp_path / "composition.csv", newline="") as f:
        full = next(row for row in csv.DictReader(f) if row["snapshot"] == "100%")
    expected = {tag: repr(v) for tag, v in noise_composition(train_labels).items()}
    assert full == {"seed": "0", "snapshot": "100%", "epoch": "0", "retained": "800", **expected}
    assert "100% retention (epoch  0)" in capsys.readouterr().out


def _stage_names(lines) -> list[str]:
    """The stage of each report line, checking that its resident memory is at most its peak."""
    for line in lines:
        hwm, rss = (float(v) for v in re.findall(r"([\d.]+) MiB", line))
        assert 0 < rss <= hwm
    return [line.split("VmHWM")[0].strip() for line in lines]


def _check_peak_line(lines, last) -> None:
    """``last`` names the stage whose line last showed a higher VmHWM than every line before it, and its VmHWM."""
    hwms = [float(re.search(r"VmHWM +([\d.]+)", line).group(1)) for line in lines]
    rose = [i for i, hwm in enumerate(hwms) if hwm > max(hwms[:i], default=0.0)][-1]
    assert last == f"peak set by       {_stage_names(lines)[rose]} (VmHWM {hwms[rose]:.2f} MiB)"


def test_rss_stages_reports_every_stage_and_restores_the_harness(tmp_path, capsys):
    script = _load("rss_stages")
    originals = (harness.train_teacher, harness.run_rows, harness.PretrainRun.run_epoch, harness.pretrain,
                 harness.read_manifest_labels, harness._eval_embeddings, harness.validation_metrics)
    data = ["--seed", "3", "--set", "data.n_pairs=600", "--set", "n_val=100"]
    small = ["--set", "teacher.n_pairs=400", "--set", "teacher.steps=50", "--set", "distill.corpus_size=256",
             "--set", "distill.held_out=64", "--set", "distill.steps=50", "--set", "train.epochs=2"]
    assert script.main(["pretrain", *data, *small, "--out-dir", str(tmp_path / "run")]) == 0
    *lines, result, last = capsys.readouterr().out.splitlines()
    assert _stage_names(lines) == ["start", "teacher", "distillation", "rows", "set-up", "epoch 1", "epoch 2"]
    assert json.loads(result)["total_steps"] > 0
    _check_peak_line(lines, last)

    # The two points share one set-up (teacher, student, rows and keys), so only the first reports
    # the teacher, the distillation and the rows; the second reads its set-up from the cache.
    sweep = ["sweep", "--axis", "queue", "--values", "64,128", "--seeds", "3", "--out-dir", str(tmp_path / "sw")]
    assert script.main([*sweep, *data, *small]) == 0
    *lines, result, last = capsys.readouterr().out.splitlines()
    point = ["set-up", "epoch 1", "epoch 2"]
    assert _stage_names(lines) == [
        "start", "teacher", "distillation", "rows", *point, "queue_64_seed3", *point, "queue_128_seed3"
    ]
    _check_peak_line(lines, last)

    assert script.main(["gen-data", *data, "--out-dir", str(tmp_path / "d")]) == 0
    *lines, result, last = capsys.readouterr().out.splitlines()
    assert _stage_names(lines) == ["start"]
    _check_peak_line(lines, last)
    eval_args = ["eval", *data, "--checkpoint", str(tmp_path / "run/checkpoints"), "--out-dir", str(tmp_path / "ev")]
    assert script.main([*eval_args, "--data-dir", str(tmp_path / "d")]) == 0
    *lines, result, last = capsys.readouterr().out.splitlines()
    assert _stage_names(lines) == ["start", "labels", "encode", "metrics"]
    assert 0 <= json.loads(result)["val_f1"] <= 1
    _check_peak_line(lines, last)
    assert (harness.train_teacher, harness.run_rows, harness.PretrainRun.run_epoch, harness.pretrain,
            harness.read_manifest_labels, harness._eval_embeddings, harness.validation_metrics) == originals


def test_rss_stages_names_the_stage_that_last_raised_the_peak(monkeypatch, capsys):
    script = _load("rss_stages")
    readings = iter([(40.0, 40.0), (45.0, 44.0), (45.0, 41.0), (47.5, 47.5), (47.5, 46.0)])
    monkeypatch.setattr(script, "memory_mib", lambda: next(readings))
    log = script.StageLog()
    for stage in ("start", "teacher", "rows", "epoch 1", "epoch 2"):
        log.report(stage)
    assert (log.peak_stage, log.hwm) == ("epoch 1", 47.5)
    _check_peak_line(capsys.readouterr().out.splitlines(), "peak set by       epoch 1 (VmHWM 47.50 MiB)")


def _protocol_output(root, timing_value="0.012", step_time="0.0031", metric="0.5"):
    (root / "run").mkdir(parents=True)
    (root / "commands").mkdir()
    (root / "commands/run.stdout").write_text('{"total_steps": 3}\n')
    (root / "run/metrics.csv").write_text(f"run_id,epoch,metric,value\r\nr,1,val_f1,{metric}\r\n")
    (root / "run/timing.csv").write_text(f"run_id,epoch,metric,value\r\nr,1,step_time_s,{timing_value}\r\n")
    (root / "sweep_queue.csv").write_text(f"axis,value,step_time_s,val_f1\r\nqueue,512,{step_time},{metric}\r\n")
    (root / "digests.json").write_text(f'{{"timing": "{timing_value}"}}\n')
    return root


def test_byte_protocol_compare_masks_only_the_measured_times(tmp_path, capsys):
    protocol = _load("byte_protocol")
    parent = _protocol_output(tmp_path / "parent")
    same = _protocol_output(tmp_path / "same", timing_value="0.019", step_time="0.0047")
    assert protocol.main(["--compare", str(parent), str(same)]) == 0

    moved = _protocol_output(tmp_path / "moved", metric="0.5000000000000001")
    assert protocol.main(["--compare", str(parent), str(moved)]) == 1
    out = capsys.readouterr().out
    for name in ("run/metrics.csv", "sweep_queue.csv"):
        assert f"differs: {name}" in out
    assert "differs: run/timing.csv" not in out

    renamed = _protocol_output(tmp_path / "renamed")
    (renamed / "run/timing.csv").write_text("run_id,epoch,metric,value\r\nr,1,step_ms,0.012\r\n")
    (renamed / "commands/run.stdout").unlink()
    (renamed / "commands/run.exit").write_text("0\n")
    assert protocol.main(["--compare", str(parent), str(renamed)]) == 1
    out = capsys.readouterr().out
    assert "differs: run/timing.csv" in out
    assert f"only in {parent}: commands/run.stdout" in out
    assert f"only in {renamed}: commands/run.exit" in out


def test_cli_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At two OpenBLAS threads this pretrain writes another query checkpoint and MLM head
    # than at one, unless the package pins one thread before numpy loads.
    protocol = _load("byte_protocol")
    args = ["pretrain", "--seed", "0", "--set", "data.n_pairs=600", "--set", "n_val=100",
            "--set", "train.epochs=2", "--out-dir", "run"]
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "pairsieve", *args], cwd=out, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        (out / "stdout").write_bytes(proc.stdout)
    assert protocol.compare(tmp_path / "1", tmp_path / "2") == []
