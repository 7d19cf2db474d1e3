import copy
import dataclasses
import json

import numpy as np
import pytest

from pairsieve.cli import main
from pairsieve.config import (
    RunConfig,
    apply_override,
    from_dict,
    load_config,
    save_config,
    to_dict,
    to_json,
)
from pairsieve.data import GenConfig, generate_dataset, split_validation
from pairsieve.encoder import encode_batch, init_params, load_params, save_params
from pairsieve.errors import ConfigError, FormatError
from pairsieve import harness
from pairsieve.harness import (
    StageInputs,
    TeacherBundle,
    benchmark_step_time,
    cmd_eval,
    cmd_gen_data,
    cmd_sweep,
    load_dataset_dir,
    pretrain,
    teacher_and_student,
    train_teacher,
)
from pairsieve.metrics import recall_at_k
from pairsieve.store import StoreHandle


def tiny_config(seed=0, **data_kw) -> RunConfig:
    data = dict(n_pairs=600, seed=seed)
    data.update(data_kw)
    cfg = RunConfig(data=GenConfig(**data), seed=seed)
    cfg.n_val = 100
    cfg.teacher.n_pairs = 400
    cfg.teacher.steps = 150
    cfg.teacher.batch_size = 64
    cfg.distill.corpus_size = 512
    cfg.distill.held_out = 128
    cfg.distill.steps = 300
    cfg.train.epochs = 3
    cfg.train.batch_pairs = 64
    cfg.train.batch_text = 16
    cfg.train.queue_capacity = 256
    cfg.stop.enabled = False
    return cfg


def determinism_config() -> RunConfig:
    """The config of acceptance criterion 15."""
    cfg = RunConfig(data=GenConfig(n_pairs=600, seed=8), seed=8)
    cfg.n_val = 100
    cfg.teacher.n_pairs = 400
    cfg.teacher.steps = 150
    cfg.distill.corpus_size = 512
    cfg.distill.held_out = 128
    cfg.distill.steps = 300
    cfg.train.epochs = 3
    cfg.train.batch_pairs = 64
    return cfg


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``harness.<name>`` so each call is recorded, then run as before."""
    calls = []
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_default_settings():
    cfg = RunConfig()
    assert cfg.train.batch_pairs == 180
    assert cfg.train.batch_text == 40
    assert cfg.train.weight_decay == 1e-4
    assert cfg.train.tau == 0.07
    assert cfg.train.alpha == 0.9
    assert cfg.train.keep_fraction == 0.9
    assert cfg.train.p_mask == 0.15
    assert cfg.train.p_replace == 0.20
    assert cfg.distill.batch_size == 256
    from pairsieve.harness import DEFAULT_GRIDS

    assert DEFAULT_GRIDS["lambda"] == [0.7, 0.8, 0.9, 0.99]
    assert DEFAULT_GRIDS["queue"] == [8, 64, 512, 4096]
    assert DEFAULT_GRIDS["text_batch"] == [30, 40, 50, 60]


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(3)
    path = tmp_path / "cfg.json"
    save_config(path, cfg)
    loaded = load_config(path)
    assert to_dict(loaded) == to_dict(cfg)
    assert loaded.run_id() == cfg.run_id()


def test_config_override():
    base = tiny_config()
    before = to_json(base)
    cfg = apply_override(base, "train.keep_fraction", "0.8")
    assert cfg.train.keep_fraction == 0.8
    cfg = apply_override(cfg, "train.queue_capacity", "512")
    assert cfg.train.queue_capacity == 512
    assert to_json(base) == before  # the argument is never changed
    cfg = apply_override(cfg, "mlm_on", "false")
    assert cfg.mlm_on is False
    with pytest.raises(ConfigError):
        apply_override(cfg, "train.nope", "1")
    with pytest.raises(ConfigError):
        apply_override(cfg, "train.keep_fraction", "1.5")
    assert cfg.train.keep_fraction == 0.8  # a rejected override leaves no trace


def test_config_validation_surfaces():
    payload = to_dict(tiny_config())
    payload["train"]["alpha"] = 1.5
    with pytest.raises(ConfigError):
        from_dict(payload)


def test_with_seed_rebases_data_seed():
    cfg = tiny_config(0)
    rebased = cfg.with_seed(9)
    assert rebased.seed == 9
    assert rebased.data.seed == 9
    assert rebased.data.world_seed == 9
    assert cfg.seed == 0  # original untouched


def test_gen_data_outputs_consistent(tmp_path):
    cfg = tiny_config(1)
    paths = cmd_gen_data(cfg, tmp_path / "data")
    manifest_lines = open(paths["manifest"]).read().strip().splitlines()
    with StoreHandle(paths["x_a"]) as sa, StoreHandle(paths["x_b"]) as sb:
        assert len(sa) == len(manifest_lines) == cfg.data.n_pairs
        assert sa.dim == cfg.data.d_a
        assert sb.dim == cfg.data.d_b
    # Idempotent: regenerating writes identical bytes.
    again = cmd_gen_data(cfg, tmp_path / "data2")
    assert open(paths["manifest"], "rb").read() == open(again["manifest"], "rb").read()
    assert open(paths["x_a"], "rb").read() == open(again["x_a"], "rb").read()


def test_load_dataset_dir_round_trip(tmp_path):
    cfg = tiny_config(2)
    cmd_gen_data(cfg, tmp_path / "d")
    ds = load_dataset_dir(tmp_path / "d", cfg.data)
    direct = generate_dataset(cfg.data)
    assert ds.x_a.tobytes() == direct.x_a.tobytes()
    assert ds.tokens.tobytes() == direct.tokens.tobytes()


def test_load_dataset_dir_empty(tmp_path):
    cfg = tiny_config(2, n_pairs=0)
    cmd_gen_data(cfg, tmp_path / "d")
    ds = load_dataset_dir(tmp_path / "d", cfg.data)
    assert len(ds) == 0
    assert ds.x_a.shape == (0, cfg.data.d_a)
    assert ds.x_b.shape == (0, cfg.data.d_b)


@pytest.mark.parametrize(
    "keep, tail, message",
    [
        (500, [], "manifest has 500 rows, x_a.ecst 600"),
        (599, ['{"id": 5, "orac'], "manifest.jsonl:600: malformed"),
        (599, ['{"id": 599, "oracle_label": "good", "tokens": [1]}\n'], "manifest ids or tokens"),
    ],
    ids=["truncated", "torn", "ragged"],
)
def test_eval_rejects_manifest_that_disagrees_with_stores(tmp_path, capsys, keep, tail, message):
    # A damaged manifest is a format error (exit 4): never scored against stores it does not describe.
    cfg = tiny_config(2)
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, cfg)
    cmd_gen_data(cfg, tmp_path / "d")
    manifest = tmp_path / "d/manifest.jsonl"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:keep] + tail))
    with pytest.raises(FormatError, match=message):
        load_dataset_dir(tmp_path / "d", cfg.data)

    ck = tmp_path / "ck"
    ck.mkdir()
    for name, d_in in (("key", cfg.data.d_a), ("query", cfg.data.d_b)):
        save_params(ck / f"{name}.ecpm", init_params(1, d_in, cfg.encoder.hidden, cfg.encoder.embed_dim))
    argv = ["eval", "--config", str(cfg_path), "--checkpoint", str(ck), "--data-dir", str(tmp_path / "d")]
    assert main(argv + ["--out-dir", str(tmp_path / "ev")]) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FormatError"
    assert message in err["message"]


def test_pretrain_deterministic_metrics(tmp_path):
    cfg = tiny_config(4)
    pretrain(cfg, out_dir=tmp_path / "a")
    pretrain(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    assert (
        (tmp_path / "a/ledger_epoch1.csv").read_bytes()
        == (tmp_path / "b/ledger_epoch1.csv").read_bytes()
    )


def test_pretrain_writes_provenance_and_checkpoints(tmp_path):
    cfg = tiny_config(5)
    report = pretrain(cfg, out_dir=tmp_path / "run")
    assert (tmp_path / "run/config.json").read_text() == to_json(cfg) + "\n"
    for name in ("key.ecpm", "query.ecpm", "mlm_head.ecst", "token_lift.ecst"):
        assert (tmp_path / "run/checkpoints" / name).exists()
    assert (tmp_path / "run/timing.csv").exists()
    assert report.total_steps > 0


def test_frozen_key_tower_and_store_consistency(tmp_path):
    # Re-encoding any stored key with the saved frozen tower reproduces
    # the stored bytes exactly.
    cfg = tiny_config(6)
    pretrain(cfg, out_dir=tmp_path / "run")
    key_enc = load_params(tmp_path / "run/checkpoints/key.ecpm")
    full = generate_dataset(cfg.data)
    train, _ = split_validation(full, cfg.n_val, cfg.seed)
    fresh, _ = encode_batch(key_enc, train.x_a)
    with StoreHandle(tmp_path / "run/keys.ecst") as store:
        stored = store.read_all()
    assert stored.tobytes() == fresh.tobytes()


def test_mode_lattice_counters():
    base = tiny_config(7)
    full = pretrain(base)
    assert full.counters["pairs_scored"] > 0
    assert full.counters["mlm_steps"] > 0
    assert full.counters["shadow_refreshes"] == base.train.epochs

    no_filter = tiny_config(7)
    no_filter.filtering_on = False
    r = pretrain(no_filter)
    assert r.counters["pairs_scored"] == 0
    assert r.counters["filter_events"] == 0

    no_mlm = tiny_config(7)
    no_mlm.mlm_on = False
    r = pretrain(no_mlm)
    assert r.counters["mlm_steps"] == 0
    assert r.counters["contrastive_steps"] == full.counters["contrastive_steps"]

    single_shadow = tiny_config(7)
    single_shadow.shadow_refresh_on = False
    r = pretrain(single_shadow)
    assert r.counters["shadow_refreshes"] == 0


def test_filtering_shrinks_geometrically():
    import math

    cfg = tiny_config(8)
    cfg.train.keep_fraction = 0.8
    report = pretrain(cfg)
    sizes = [int(v) for _, v in report.series("retained_count")]
    expected = []
    n = cfg.data.n_pairs - cfg.n_val
    for _ in sizes:
        n = math.ceil(0.8 * n)
        expected.append(n)
    assert sizes == expected


def test_step_budget_respected():
    cfg = tiny_config(9)
    cfg.train.epochs = 50
    cfg.train.step_budget = 13
    report = pretrain(cfg)
    assert report.total_steps == 13


def test_untrained_encoder_scores_at_chance(tmp_path):
    from pairsieve.encoder import init_params, save_params

    n = 1000
    cfg = tiny_config(10, n_pairs=2600)
    cfg.n_val = n
    ck = tmp_path / "ck"
    ck.mkdir()
    save_params(ck / "key.ecpm", init_params(100, cfg.data.d_a, 32, 16))
    save_params(ck / "query.ecpm", init_params(101, cfg.data.d_b, 32, 16))
    metrics = cmd_eval(ck, cfg, tmp_path / "eval")
    assert metrics["val_r1_b2a"] <= 3.0 / n
    assert (tmp_path / "eval/eval.csv").exists()


def test_teacher_quality_on_clean_pairs():
    cfg = tiny_config(11)
    cfg.teacher.steps = 600
    cfg.teacher.batch_size = 128
    cfg.teacher.n_pairs = 2000
    teacher = train_teacher(StageInputs.of(cfg))
    probe = GenConfig(
        n_pairs=500,
        f_good=1.0,
        f_clean=0.0,
        f_noisy=0.0,
        seed=777,
        world_seed=cfg.data.world,
    )
    ds = generate_dataset(probe)
    keys, _ = encode_batch(teacher.key_encoder, ds.x_a)
    queries, _ = encode_batch(teacher.text_encoder, ds.x_b @ teacher.view.T)
    res = recall_at_k(queries, keys, np.arange(500), ks=(1,))
    assert res[1] > 0.8


def test_eval_deterministic(tmp_path):
    cfg = tiny_config(12)
    pretrain(cfg, out_dir=tmp_path / "run")
    ck = tmp_path / "run/checkpoints"
    cmd_eval(ck, cfg, tmp_path / "e1")
    cmd_eval(ck, cfg, tmp_path / "e2")
    assert (tmp_path / "e1/eval.csv").read_bytes() == (tmp_path / "e2/eval.csv").read_bytes()


def test_sweep_single_value_matches_pretrain(tmp_path):
    cfg = tiny_config(13)
    results = cmd_sweep(cfg, "lambda", [0.9], seeds=[13], out_dir=tmp_path / "sweep")
    assert len(results) == 1
    variant = cfg.with_seed(13)
    variant.train.keep_fraction = 0.9
    direct = pretrain(variant, out_dir=tmp_path / "direct")
    sweep_csv = (tmp_path / "sweep/lambda_0.9_seed13/metrics.csv").read_bytes()
    assert sweep_csv == (tmp_path / "direct/metrics.csv").read_bytes()
    assert (tmp_path / "sweep/sweep_lambda.csv").exists()


def test_benchmark_step_time_positive():
    cfg = tiny_config(14)
    t = benchmark_step_time(cfg, queue_capacity=8, steps=5, reps=2)
    assert t > 0


def test_cli_gen_data_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, tiny_config(15))
    code = main(["gen-data", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out/manifest.jsonl").exists()
    capsys.readouterr()

    bad = main(
        [
            "gen-data",
            "--config",
            str(cfg_path),
            "--out-dir",
            str(tmp_path / "out2"),
            "--set",
            "data.f_noisy=0.9",
        ]
    )
    assert bad == 2  # fractions no longer sum to one -> config error
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"

    # Malformed values, lists and config keys are config errors too, not tracebacks.
    unknown_section = tmp_path / "unknown_section.json"
    unknown_section.write_text('{"trian": {}}')
    unknown_field = tmp_path / "unknown_field.json"
    unknown_field.write_text('{"train": {"epoks": 3}}')
    not_object = tmp_path / "not_object.json"
    not_object.write_text("[1, 2]")
    missing = tmp_path / "missing.json"
    out = str(tmp_path / "out3")
    for argv in (
        ["pretrain", "--out-dir", out, "--set", "train.epochs=abc"],
        ["pretrain", "--out-dir", out, "--set", "stop.patience=0"],
        ["sweep", "--axis", "queue", "--values", "8,", "--out-dir", out],
        ["sweep", "--axis", "queue", "--values", "8", "--seeds", "0,x", "--out-dir", out],
        # Out-of-range grid values fail validation before any point runs.
        ["sweep", "--axis", "queue", "--values", "0", "--out-dir", out],
        ["sweep", "--axis", "lambda", "--values", "1.5", "--out-dir", out],
        ["sweep", "--axis", "text_batch", "--values", "-1", "--out-dir", out],
        ["pretrain", "--config", str(unknown_section), "--out-dir", out],
        ["pretrain", "--config", str(unknown_field), "--out-dir", out],
        ["gen-data", "--config", str(not_object), "--out-dir", out],
        ["gen-data", "--config", str(missing), "--out-dir", out],
    ):
        assert main(argv) == 2, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError", argv
        assert not (tmp_path / "out3").exists(), argv
    assert str(missing) in err["message"]


def test_cli_training_needs_validation_pairs(tmp_path, capsys, monkeypatch):
    # Training picks its f1 threshold on validation pairs: n_val=0 is refused before any work.
    # Eval still accepts n_val=0 and scores the whole set.
    cfg = RunConfig(data=GenConfig(n_pairs=200))
    for name, d_in, seed in (("key", cfg.data.d_a, 1), ("query", cfg.data.d_b, 2)):
        save_params(tmp_path / f"{name}.ecpm", init_params(seed, d_in, cfg.encoder.hidden, cfg.encoder.embed_dim))
    argv = ["eval", "--checkpoint", str(tmp_path), "--out-dir", str(tmp_path / "eval")]
    assert main(argv + ["--set", "data.n_pairs=200", "--set", "n_val=0"]) == 0
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("pairsieve.harness.generate_dataset", no_training)
    monkeypatch.setattr("pairsieve.harness.train_teacher", no_training)
    out = str(tmp_path / "out")
    for argv in (
        ["pretrain", "--out-dir", out, "--set", "n_val=0"],
        ["sweep", "--axis", "queue", "--values", "8", "--out-dir", out, "--set", "n_val=0"],
    ):
        assert main(argv) == 2, argv
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and "n_val" in err["message"], argv
        assert not (tmp_path / "out").exists(), argv


def test_cli_pretrain_divergence_exits_nonfinite(tmp_path, capsys):
    # An lr this large overflows the embedding norm; the run must not finish with exit 0.
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, tiny_config(17))
    argv = ["pretrain", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]
    with np.errstate(over="ignore"):
        assert main(argv + ["--set", "train.base_lr=1e6"]) == 5
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NonFiniteLoss"


def test_cli_pretrain_and_eval(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, tiny_config(16))
    assert (
        main(["pretrain", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 0
    )
    out = json.loads(capsys.readouterr().out.strip())
    assert out["total_steps"] > 0
    assert (
        main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--checkpoint",
                str(tmp_path / "run/checkpoints"),
                "--out-dir",
                str(tmp_path / "eval"),
            ]
        )
        == 0
    )
    metrics = json.loads(capsys.readouterr().out.strip())
    assert "val_r1_b2a" in metrics


def _run_files(root) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "timing.csv"
    }


def test_stage_cache_hit_writes_identical_run_dir(tmp_path, monkeypatch):
    cfg = determinism_config()
    pretrain(cfg, out_dir=tmp_path / "plain")
    stages = {}
    pretrain(cfg, out_dir=tmp_path / "miss", stages=stages)
    teacher_runs = count_calls(monkeypatch, "train_teacher")
    pretrain(cfg, out_dir=tmp_path / "hit", stages=stages)
    assert teacher_runs == [] and len(stages) == 1
    plain = _run_files(tmp_path / "plain")
    assert "metrics.csv" in plain and "checkpoints/query.ecpm" in plain
    assert _run_files(tmp_path / "miss") == plain
    assert _run_files(tmp_path / "hit") == plain


def test_stage_cache_arrays_are_read_only():
    cfg = tiny_config(18)
    cfg.teacher.steps = 20
    cfg.distill.steps = 20
    stages = {}
    teacher, student, _ = teacher_and_student(StageInputs.of(cfg), stages)
    assert teacher_and_student(StageInputs.of(cfg), stages)[1] is student
    for a in (*teacher.key_encoder.arrays(), *teacher.text_encoder.arrays(), teacher.view, *student.arrays()):
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


def _stage_leaves(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _stage_leaves(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def test_every_stage_input_is_in_the_cache_key(monkeypatch):
    cfg = tiny_config(19)
    teacher_runs = []

    def fake_teacher(inputs):
        teacher_runs.append(inputs)
        return TeacherBundle(init_params(0, 2, 2, 2), init_params(1, 2, 2, 2), np.eye(2))

    monkeypatch.setattr(harness, "train_teacher", fake_teacher)
    monkeypatch.setattr(harness, "distill_student", lambda inputs, teacher: (init_params(2, 2, 2, 2), 0.0, []))
    stages = {}
    teacher_and_student(StageInputs.of(cfg), stages)

    # Each leaf of StageInputs, reached through the RunConfig field it comes from.
    leaves = list(_stage_leaves(StageInputs.of(cfg)))
    for path in leaves:
        variant = copy.deepcopy(cfg)
        if path == ("seed",):
            owner = variant
        elif len(path) == 1:
            owner = variant.train  # tau, weight_decay, warmup_frac, base_lr
        else:
            owner = getattr(variant, path[0])
        value = getattr(owner, path[-1])
        setattr(owner, path[-1], 1 if value is None else value + 1)
        teacher_and_student(StageInputs.of(variant), stages)
    assert len(teacher_runs) == len(stages) == 1 + len(leaves)

    # Fields outside StageInputs, the sweep axes among them, hit.
    for dotted, raw in (
        ("train.keep_fraction", "0.5"),
        ("train.queue_capacity", "8"),
        ("train.batch_text", "0"),
        ("train.epochs", "9"),
        ("filtering_on", "false"),
    ):
        teacher_and_student(StageInputs.of(apply_override(cfg, dotted, raw)), stages)
    assert len(teacher_runs) == 1 + len(leaves)


def test_sweep_trains_one_teacher_per_seed(tmp_path, monkeypatch):
    cfg = tiny_config(20)
    cfg.train.epochs = 1
    teacher_runs = count_calls(monkeypatch, "train_teacher")
    rows = cmd_sweep(cfg, "queue", [8, 64], seeds=[0, 1], out_dir=tmp_path / "sweep")
    assert len(rows) == 4
    assert len(teacher_runs) == 2
