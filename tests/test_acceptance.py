"""Acceptance gate: one test per shipping criterion.

Each test prints one PASS/FAIL line with its measured numbers (run with
-s or -rA to see them). Comparison criteria run five seeds and require
the stated majority; the ensemble-shadow comparison is soft and reports
without gating.
"""

import math
import time

import numpy as np
import pytest

from pairsieve.config import RunConfig, comparison_config, noise_removal_config
from pairsieve.contrastive import (
    ContrastiveBatch,
    MemoryQueue,
    PairBatch,
    contrastive_loss,
    training_step,
)
from pairsieve.curation import rank_and_filter, score_pairs, update_total_scores
from pairsieve.data import GenConfig, Label, generate_dataset, split_validation
from pairsieve.distill import distill_loss
from pairsieve.encoder import (
    EncoderPairState,
    EncoderParams,
    MlmHead,
    encode_backward,
    encode_batch,
    init_mlm_head,
    init_params,
)
from pairsieve.harness import (
    StageInputs,
    benchmark_step_time,
    distill_student,
    pretrain,
    train_teacher,
)
from pairsieve.metrics import f1_at_threshold, recall_at_k
from pairsieve.mlm import combined_step, mask_batch, mlm_loss
from pairsieve.numerics import finite_diff_check
from pairsieve.rng import substream
from pairsieve.store import HEADER_SIZE, StoreHandle, write_store

SEEDS = [0, 1, 2, 3, 4]


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _rebuild(shape_ref: EncoderParams, arrays):
    return EncoderParams(
        np.asarray(arrays[0]).reshape(shape_ref.w1.shape),
        np.asarray(arrays[1]),
        np.asarray(arrays[2]).reshape(shape_ref.w2.shape),
        np.asarray(arrays[3]),
    )


# ---------------------------------------------------------------- criterion 1
def test_criterion_01_gradient_fidelity():
    t0 = time.monotonic()
    errs = {}

    # Contrastive loss, batch 4 against a queue of 8.
    p = init_params(21, 6, 5, 4)
    rng = substream(21, "init", 5)
    x = rng.standard_normal((4, 6))
    pos = rng.standard_normal((4, 4))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    queue = MemoryQueue(8, 4)
    negs = rng.standard_normal((8, 4))
    negs /= np.linalg.norm(negs, axis=1, keepdims=True)
    queue.push(negs, np.arange(50, 58))

    def contrastive_fn(arrays):
        enc = _rebuild(p, arrays)
        emb, cache = encode_batch(enc, x)
        batch = ContrastiveBatch(queries=emb, positives=pos, ids=np.arange(4))
        loss, dq = contrastive_loss(batch, queue, tau=0.07)
        return loss, encode_backward(enc, cache, dq).arrays()

    errs["contrastive"] = finite_diff_check(contrastive_fn, p.arrays()).max_rel_err

    # Masked-token loss on one six-token sequence.
    vocab = 7
    head = init_mlm_head(5, vocab, 6, 4)
    seqs = substream(6, "mask", 0).integers(0, vocab, size=(1, 6))
    masked = mask_batch(seqs, 0.4, 0.2, substream(6, "mask", 1), vocab)
    assert masked.mask_rows.size > 0

    def mlm_fn(arrays):
        enc = _rebuild(p, arrays[:4])
        h = MlmHead(lift=head.lift, w=np.asarray(arrays[4]), b=np.asarray(arrays[5]))
        loss, grads = mlm_loss(enc, h, masked)
        return loss, grads.encoder.arrays() + [grads.head_w, grads.head_b]

    errs["mlm"] = finite_diff_check(mlm_fn, p.arrays() + [head.w, head.b]).max_rel_err

    # Distillation loss.
    teacher = init_params(7, 6, 5, 4)
    x_t = substream(2, "distill", 2).standard_normal((5, 6))
    x_s = substream(2, "distill", 3).standard_normal((5, 6))
    targets, _ = encode_batch(teacher, x_t)

    def distill_fn(arrays):
        s = _rebuild(p, arrays)
        loss, grads = distill_loss(targets, s, x_s)
        return loss, grads.arrays()

    errs["distill"] = finite_diff_check(distill_fn, p.arrays()).max_rel_err

    elapsed = time.monotonic() - t0
    ok = all(e <= 1e-4 for e in errs.values()) and elapsed < 60
    detail = ", ".join(f"{k}={v:.2e}" for k, v in errs.items()) + f", {elapsed:.1f}s"
    assert report(1, "gradient-fidelity", ok, detail)


# ---------------------------------------------------------------- criterion 2
def test_criterion_02_smoothing_exactness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for alpha in (0.0, 0.5, 0.9):
        scores = rng.uniform(-1, 1, size=5)
        totals = np.zeros(1)
        for s in scores:
            update_total_scores(totals, [0], [float(s)], alpha)
        closed = sum(alpha ** (4 - j) * s for j, s in enumerate(scores))
        worst = max(worst, abs(totals[0] - closed))
    ok = worst <= 1e-12
    assert report(2, "smoothing-exactness", ok, f"max_abs_err={worst:.2e}")


# ---------------------------------------------------------------- criterion 3
def test_criterion_03_rank_filter_geometry():
    totals = np.arange(300.0)
    retained = np.arange(300)
    for _ in range(9):
        retained = rank_and_filter(totals, retained, 0.9)
    final = len(retained)
    ok = final == 119 and 114 <= final <= 120
    assert report(3, "rank-filter-geometry", ok, f"300 -> {final} after 9 rounds at 0.9")


# ------------------------------------------------------- criteria 4 and 5
@pytest.fixture(scope="module")
def noise_removal_runs():
    runs = []
    for seed in SEEDS:
        t0 = time.monotonic()
        rep = pretrain(noise_removal_config(seed))
        runs.append((seed, rep, time.monotonic() - t0))
    return runs


def test_criterion_04_noise_removal_trend(noise_removal_runs):
    train_n = 9500
    wins = 0
    details = []
    max_seconds = 0.0
    for seed, rep, seconds in noise_removal_runs:
        max_seconds = max(max_seconds, seconds)
        snapshots = {}
        for epoch, count in rep.series("retained_count"):
            f = count / train_n
            for name, cut in (("100", 1.01), ("66", 0.66), ("33", 0.33)):
                if name not in snapshots and f <= cut:
                    snapshots[name] = epoch
        noisy = [rep.metric(snapshots[s], "frac_noisy") for s in ("100", "66", "33")]
        good = [rep.metric(snapshots[s], "frac_good") for s in ("100", "66", "33")]
        win = noisy[0] > noisy[1] > noisy[2] and good[0] < good[1] < good[2]
        wins += win
        details.append(f"seed{seed} noisy {noisy[0]:.2f}>{noisy[1]:.2f}>{noisy[2]:.2f}")
    ok = wins >= 4 and max_seconds < 600
    assert report(
        4, "noise-removal-trend", ok, f"{wins}/5 seeds, max {max_seconds:.0f}s; " + "; ".join(details[:2])
    )


def test_criterion_05_filtering_ratio(noise_removal_runs):
    wins = 0
    for _, rep, _ in noise_removal_runs:
        v = dict(rep.series("retention_good"))
        u = dict(rep.series("retention_noisy"))
        epochs = sorted(set(v) & set(u))
        after_first = [e for e in epochs if e >= 2]
        win = all(math.isnan(u[e]) or v[e] > u[e] for e in after_first)
        wins += win
    ok = wins >= 4
    assert report(5, "filtering-ratio", ok, f"v>u at all filtering epochs>1 in {wins}/5 seeds")


@pytest.fixture(scope="module")
def stages():
    """One teacher and student per seed for criteria 6, 7, 8 and 12: their
    configs differ only outside StageInputs."""
    return {}


# ---------------------------------------------------------------- criterion 6
def test_criterion_06_filtering_benefit(stages):
    epochs = 20
    diffs = []
    for seed in SEEDS:
        base = comparison_config(seed)
        budget = epochs * math.ceil((base.data.n_pairs - base.n_val) / base.train.batch_pairs)
        on = comparison_config(seed)
        on.train.epochs = 200
        on.train.step_budget = budget
        on.train.filter_epochs_max = 8
        off = comparison_config(seed)
        off.filtering_on = False
        off.train.epochs = 200
        off.train.step_budget = budget
        rep_on = pretrain(on, stages=stages)
        rep_off = pretrain(off, stages=stages)
        assert rep_on.total_steps == rep_off.total_steps == budget
        last_on = max(e for e, _, _ in rep_on.rows)
        last_off = max(e for e, _, _ in rep_off.rows)
        diffs.append(
            rep_on.metric(last_on, "val_r1_b2a") - rep_off.metric(last_off, "val_r1_b2a")
        )
    wins = sum(d > 0 for d in diffs)
    mean_diff = float(np.mean(diffs))
    ok = wins >= 4 and mean_diff > 0
    assert report(
        6, "filtering-benefit", ok,
        f"{wins}/5 seeds positive, mean dR@1={mean_diff:+.4f}, matched budget",
    )


# ---------------------------------------------------------------- criterion 7
def test_criterion_07_keep_fraction_interior_optimum(stages):
    wins = 0
    pairs = []
    for seed in SEEDS:
        fracs = {}
        for keep in (0.9, 0.99):
            cfg = comparison_config(seed)
            cfg.train.keep_fraction = keep
            cfg.train.filter_epochs_max = 6
            cfg.train.epochs = 8
            rep = pretrain(cfg, stages=stages)
            last = max(e for e, _, _ in rep.rows)
            fracs[keep] = rep.metric(last, "frac_noisy")
        wins += fracs[0.99] > fracs[0.9]
        pairs.append(f"seed{seed} {fracs[0.99]:.2f}>{fracs[0.9]:.2f}")
    ok = wins >= 4
    assert report(7, "keep-fraction-optimum", ok, f"{wins}/5 seeds; " + "; ".join(pairs[:2]))


# ---------------------------------------------------------------- criterion 8
def test_criterion_08_queue_behaviour(stages):
    wins = 0
    for seed in SEEDS:
        recalls = {}
        for capacity in (8, 512):
            cfg = comparison_config(seed)
            cfg.train.queue_capacity = capacity
            cfg.train.filter_epochs_max = 6
            cfg.train.epochs = 16
            rep = pretrain(cfg, stages=stages)
            last = max(e for e, _, _ in rep.rows)
            recalls[capacity] = rep.metric(last, "val_r1_b2a")
        wins += recalls[512] >= recalls[8]

    bench_cfg = RunConfig(data=GenConfig(n_pairs=1000, seed=0), seed=0)
    times = benchmark_step_time(bench_cfg, (8, 64, 512, 4096), steps=40, reps=5)
    monotone = all(a <= b for a, b in zip(times, times[1:]))
    ok = wins >= 4 and monotone
    detail = (
        f"R@1 512>=8 in {wins}/5 seeds; step-times "
        + ">".join(f"{t*1e6:.0f}us" for t in times)
        + f" monotone={monotone}"
    )
    assert report(8, "queue-behaviour", ok, detail)


# ---------------------------------------------------------------- criterion 9
def test_criterion_09_frozen_key_consistency():
    cfg = RunConfig(data=GenConfig(n_pairs=600, seed=2), seed=2)
    cfg.n_val = 100
    cfg.teacher.steps = 150
    cfg.teacher.n_pairs = 400
    cfg.distill.steps = 300
    cfg.distill.corpus_size = 512
    cfg.distill.held_out = 128
    full = generate_dataset(cfg.data)
    train, _ = split_validation(full, cfg.n_val, cfg.seed)
    teacher = train_teacher(StageInputs.of(cfg))
    student, _, _ = distill_student(StageInputs.of(cfg), teacher)
    state = EncoderPairState(key_encoder=teacher.key_encoder, query_encoder=student)
    keys, _ = encode_batch(state.key_encoder, train.x_a)
    row_of = {int(i): r for r, i in enumerate(train.ids)}

    queue = MemoryQueue(128, cfg.encoder.embed_dim)
    mismatches = 0
    checked = 0
    for epoch in range(1, 4):
        order = substream(cfg.seed, "batch", epoch).permutation(train.ids)
        for start in range(0, len(order), 50):
            ids = order[start : start + 50]
            rows = [row_of[int(i)] for i in ids]
            batch = PairBatch(ids=ids, x_a=train.x_a[rows], x_b=train.x_b[rows])
            training_step(
                state, queue, batch, tau=0.07, lr=5e-3, weight_decay=0.0,
                key_lookup=lambda i: keys[[row_of[int(j)] for j in i]],
            )
        emb, ids_in_queue = queue.snapshot()
        fresh, _ = encode_batch(state.key_encoder, train.x_a[[row_of[int(i)] for i in ids_in_queue]])
        checked += len(ids_in_queue)
        mismatches += int(np.sum(np.any(emb != fresh, axis=1)))
    ok = mismatches == 0 and checked > 0
    assert report(
        9, "frozen-key-consistency", ok, f"{checked} queue entries re-encoded, {mismatches} mismatches"
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_distillation():
    held_values = []
    gaps = []
    for seed in SEEDS[:3]:
        cfg = RunConfig(data=GenConfig(n_pairs=2000, seed=seed), seed=seed)
        teacher = train_teacher(StageInputs.of(cfg))
        student, held, _ = distill_student(StageInputs.of(cfg), teacher)
        held_values.append(held)
        noisy_ds = generate_dataset(cfg.data)
        keys, _ = encode_batch(teacher.key_encoder, noisy_ds.x_a)
        svals = score_pairs(keys, student, noisy_ds.x_b)
        good = svals[noisy_ds.labels == Label.GOOD].mean()
        noisy = svals[noisy_ds.labels == Label.NOISY].mean()
        gaps.append(good - noisy)
    ok = all(h < 0.05 for h in held_values) and all(g > 0 for g in gaps)
    detail = (
        "held MSE " + ",".join(f"{h:.3f}" for h in held_values)
        + "; good-noisy gap " + ",".join(f"{g:.2f}" for g in gaps)
    )
    assert report(10, "distillation", ok, detail)


# --------------------------------------------------------------- criterion 11
def test_criterion_11_mlm_contract():
    rng = substream(3, "mask", 0)
    seqs = rng.integers(0, 64, size=(83334, 12))  # one million tokens
    masked = mask_batch(seqs, 0.15, 0.20, substream(3, "mask", 1), 64)
    total = seqs.size
    selected = masked.mask_rows.shape[0]
    sel_rate = selected / total
    corrupted = masked.tokens[masked.mask_rows, masked.mask_cols]
    rep_rate = float(np.sum(corrupted != 64)) / selected
    freq_ok = abs(sel_rate - 0.15) <= 0.002 and abs(rep_rate - 0.20) <= 0.005

    # Zero-weight combined step must be bit-identical to the plain step.
    prng = substream(9, "mask", 2)
    pair_batch = PairBatch(
        ids=np.arange(3), x_a=prng.standard_normal((3, 8)), x_b=prng.standard_normal((3, 6))
    )
    text = mask_batch(prng.integers(0, 7, size=(2, 6)), 0.4, 0.2, substream(9, "mask", 3), 7)

    def fresh_state():
        return EncoderPairState(
            key_encoder=init_params(31, 8, 5, 4),
            query_encoder=init_params(32, 6, 5, 4),
            mlm=init_mlm_head(33, 7, 6, 4),
        )

    keys, _ = encode_batch(fresh_state().key_encoder, pair_batch.x_a)
    sa, qa, sb, qb = fresh_state(), MemoryQueue(8, 4), fresh_state(), MemoryQueue(8, 4)
    combined_step(
        sa, qa, pair_batch, text, 0.0, tau=0.07, lr=1e-2, weight_decay=0.0,
        key_lookup=lambda ids: keys[ids],
    )
    training_step(
        sb, qb, pair_batch, tau=0.07, lr=1e-2, weight_decay=0.0,
        key_lookup=lambda ids: keys[ids],
    )
    identical = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(sa.query_encoder.arrays(), sb.query_encoder.arrays())
    ) and qa.snapshot()[0].tobytes() == qb.snapshot()[0].tobytes()

    ok = freq_ok and identical
    assert report(
        11, "mlm-contract", ok,
        f"select={sel_rate:.4f} replace={rep_rate:.4f}, zero-weight bit-identical={identical}",
    )


# --------------------------------------------------------------- criterion 12
def test_criterion_12_ensemble_shadow_ablation(stages):
    wins = 0
    diffs = []
    for seed in SEEDS:
        recalls = {}
        for refresh in (True, False):
            cfg = comparison_config(seed)
            cfg.shadow_refresh_on = refresh
            cfg.train.filter_epochs_max = 6
            cfg.train.epochs = 16
            rep = pretrain(cfg, stages=stages)
            last = max(e for e, _, _ in rep.rows)
            recalls[refresh] = rep.metric(last, "val_r1_b2a")
        wins += recalls[True] >= recalls[False]
        diffs.append(recalls[True] - recalls[False])
    ok = wins >= 3
    detail = f"ensemble>=single in {wins}/5 seeds, mean diff {np.mean(diffs):+.4f}"
    # Soft criterion: measured and reported; small margins are expected,
    # so a sub-threshold result is recorded without gating the suite.
    report(12, "ensemble-shadow", ok, detail + ("" if ok else " [soft, reported not gated]"))


# --------------------------------------------------------------- criterion 13
def test_criterion_13_metric_oracles():
    rng = np.random.default_rng(5)
    queries = rng.standard_normal((50, 6))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    keys = rng.standard_normal((50, 6))
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    truth = rng.permutation(50)
    got = recall_at_k(queries, keys, truth, ks=(1, 5, 10))
    hits = {k: 0 for k in (1, 5, 10)}
    for i, t in enumerate(truth):
        scores = [float(np.dot(queries[i], keys[j])) for j in range(50)]
        order = sorted(range(50), key=lambda j: (-scores[j], j))
        for k in hits:
            hits[k] += order.index(t) < k
    recall_exact = got == {k: hits[k] / 50 for k in hits}

    true_scores = rng.uniform(-1, 1, size=50)
    mism_scores = rng.uniform(-1, 1, size=50)
    f1_exact = True
    for theta in (-0.3, 0.0, 0.4):
        tp = sum(1 for s in true_scores if s > theta)
        fp = sum(1 for s in mism_scores if s > theta)
        fn = 50 - tp
        r = f1_at_threshold(true_scores, mism_scores, theta)
        if tp + fp == 0:
            f1_exact &= r.f1 == 0.0
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        expected = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        f1_exact &= (r.precision, r.recall, r.f1) == (precision, recall, expected)
    ok = recall_exact and f1_exact
    assert report(13, "metric-oracles", ok, f"recall_exact={recall_exact}, f1_exact={f1_exact}")


# --------------------------------------------------------------- criterion 14
def test_criterion_14_store(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((1000, 16))
    rows[0, 0] = -0.0
    path = tmp_path / "bench.ecst"
    write_store(path, rows)
    size_ok = path.stat().st_size == HEADER_SIZE + 1000 * 16 * 8

    with StoreHandle(path) as handle:
        back = np.vstack([handle.read_at(i) for i in range(1000)])
        round_trip_ok = back.tobytes() == rows.tobytes()

        n_reads = 100_000
        indices = rng.integers(0, 1000, size=n_reads)
        t0 = time.perf_counter()
        for i in indices:
            handle.read_at(int(i))
        store_per_read = (time.perf_counter() - t0) / n_reads

    # Naive rescan baseline: stream rows from the top for every lookup.
    def naive_read(index):
        with open(path, "rb") as f:
            f.read(HEADER_SIZE)
            for _ in range(index + 1):
                blob = f.read(16 * 8)
        return np.frombuffer(blob, dtype="<f8")

    probe = indices[:200]
    t0 = time.perf_counter()
    for i in probe:
        naive_read(int(i))
    naive_per_read = (time.perf_counter() - t0) / len(probe)

    speedup = naive_per_read / store_per_read
    ok = size_ok and round_trip_ok and speedup >= 10
    assert report(
        14, "store", ok,
        f"round_trip={round_trip_ok}, size={size_ok}, speedup={speedup:.0f}x at {n_reads} reads",
    )


# --------------------------------------------------------------- criterion 15
def test_criterion_15_determinism(tmp_path):
    cfg = RunConfig(data=GenConfig(n_pairs=600, seed=8), seed=8)
    cfg.n_val = 100
    cfg.teacher.n_pairs = 400
    cfg.teacher.steps = 150
    cfg.distill.corpus_size = 512
    cfg.distill.held_out = 128
    cfg.distill.steps = 300
    cfg.train.epochs = 3
    cfg.train.batch_pairs = 64
    pretrain(cfg, out_dir=tmp_path / "first")
    pretrain(cfg, out_dir=tmp_path / "second")
    first = (tmp_path / "first/metrics.csv").read_bytes()
    second = (tmp_path / "second/metrics.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert report(15, "determinism", ok, f"metrics.csv identical ({len(first)} bytes)")
