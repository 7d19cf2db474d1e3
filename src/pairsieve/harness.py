"""End-to-end pipeline: teacher pretraining, distillation, filtered
contrastive training with the masked-token task, evaluation, and sweeps.

Every run is a pure function of its RunConfig: all randomness flows from
the config seed through named substreams, and metric outputs are
byte-stable across reruns.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import reduce
from math import ceil
from pathlib import Path

import numpy as np

from .config import (
    DistillConfig,
    EncoderConfig,
    RunConfig,
    TeacherConfig,
    apply_override,
    save_config,
    to_json,
)
from .contrastive import ContrastiveBatch, MemoryQueue, PairBatch, contrastive_loss, training_step
from .curation import (
    check_stop,
    filtering_ratio_report,
    rank_and_filter,
    score_pairs,
    update_total_scores,
    write_ledger_dump,
)
from .data import (
    Dataset,
    GenConfig,
    Label,
    generate_blocks,
    generate_dataset,
    generate_rows,
    label_plan,
    largest_remainder_counts,
    orthonormal_columns,
    read_manifest,
    read_manifest_labels,
    split_rows,
    write_csv,
    write_manifest_lines,
)
from .distill import distill_mse, run_distillation
from .encoder import (
    EncoderPairState,
    EncoderParams,
    cosine_warmup_lr,
    encode_backward,
    encode_batch,
    init_mlm_head,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .errors import ConfigError, EmptySet, FormatError
from .metrics import (
    f1_at_threshold,
    noise_composition,
    recall_at_k,
    select_threshold,
    write_metrics_csv,
)
from .mlm import combined_step, mask_batch
from .rng import Substreams, substream
from .store import StoreHandle, appending_store, atomic_open, write_store

# Stage tags for deriving per-component seeds from the master seed.
_STAGE = {
    "teacher_data": 1,
    "key_init": 2,
    "text_init": 3,
    "student_init": 4,
    "distill_data": 5,
    "head_init": 6,
}


def stage_seed(master: int, tag: str) -> int:
    return master * 256 + _STAGE[tag]


def view_map(world_seed: int, dim: int) -> np.ndarray:
    """Fixed orthogonal map giving the teacher its own input view."""
    return orthonormal_columns(substream(world_seed, "view"), dim, dim)


@dataclass
class TeacherBundle:
    """Clean-data encoder pair; ``view`` is the teacher-side input map."""

    key_encoder: EncoderParams
    text_encoder: EncoderParams
    view: np.ndarray


@dataclass(frozen=True)
class StageInputs:
    """Everything the teacher and distillation stages read, and nothing else.

    Both stages are pure functions of this value, so ``to_json`` of it is
    the key under which a ``StageCache`` keeps their outputs.
    """

    seed: int
    data: GenConfig
    encoder: EncoderConfig
    teacher: TeacherConfig
    distill: DistillConfig
    tau: float
    weight_decay: float
    warmup_frac: float
    base_lr: float

    @classmethod
    def of(cls, cfg: RunConfig) -> "StageInputs":
        t = cfg.train
        return cls(
            cfg.seed, cfg.data, cfg.encoder, cfg.teacher, cfg.distill,
            t.tau, t.weight_decay, t.warmup_frac, t.base_lr,
        )


# The frozen teacher, the distilled student and its held-out MSE, keyed by
# ``to_json(StageInputs)``. The caller owns it; arrays in it are read-only.
StageCache = dict[str, tuple[TeacherBundle, EncoderParams, float]]


def _clean_pairs(inputs: StageInputs, n_pairs: int, tag: str) -> Dataset:
    """All-good pairs in the run's world, keyed by the stage seed ``tag``."""
    data_cfg = replace(
        inputs.data,
        n_pairs=n_pairs,
        f_good=1.0,
        f_clean=0.0,
        f_noisy=0.0,
        seed=stage_seed(inputs.seed, tag),
        world_seed=inputs.data.world,
    )
    return generate_dataset(data_cfg)


def train_teacher(inputs: StageInputs) -> TeacherBundle:
    """Contrastively pretrain both towers on a clean synthetic set.

    Stands in for an off-the-shelf pretrained pair: the key tower is
    frozen afterwards, the text tower becomes the distillation teacher.
    """
    seed, data, enc, tc = inputs.seed, inputs.data, inputs.encoder, inputs.teacher
    ds = _clean_pairs(inputs, tc.n_pairs, "teacher_data")
    view = view_map(data.world, data.d_b)
    x_view = ds.x_b @ view.T

    enc_a = init_params(stage_seed(seed, "key_init"), data.d_a, enc.hidden, enc.embed_dim)
    enc_b = init_params(stage_seed(seed, "text_init"), data.d_b, enc.hidden, enc.embed_dim)
    queue_a = MemoryQueue(tc.queue_capacity, enc.embed_dim)
    queue_b = MemoryQueue(tc.queue_capacity, enc.embed_dim)
    tau, wd = inputs.tau, inputs.weight_decay
    steps = tc.steps
    warmup = int(round(inputs.warmup_frac * steps))
    n = len(ds)
    streams = Substreams(seed, "teacher")
    for step in range(steps):
        # Clean-pair ids are their rows (arange), so the picked rows name the pairs.
        pick = streams.at(step).integers(0, n, size=tc.batch_size)
        lr = cosine_warmup_lr(step, warmup, steps, inputs.base_lr)
        emb_a, cache_a = encode_batch(enc_a, ds.x_a[pick])
        emb_b, cache_b = encode_batch(enc_b, x_view[pick])
        # Two one-sided losses train both towers symmetrically.
        _, d_b = contrastive_loss(ContrastiveBatch(emb_b, emb_a, pick), queue_a, tau)
        _, d_a = contrastive_loss(ContrastiveBatch(emb_a, emb_b, pick), queue_b, tau)
        if lr > 0:
            enc_b = sgd_step(enc_b, encode_backward(enc_b, cache_b, d_b), lr, wd)
            enc_a = sgd_step(enc_a, encode_backward(enc_a, cache_a, d_a), lr, wd)
        queue_a.push(emb_a, pick)
        queue_b.push(emb_b, pick)
    return TeacherBundle(key_encoder=enc_a, text_encoder=enc_b, view=view)


def distill_student(inputs: StageInputs, teacher: TeacherBundle) -> tuple[EncoderParams, float, list[float]]:
    """Distill the teacher text tower into a student on raw inputs.

    The teacher reads its own view of each vector, the student the raw
    vector, so matched outputs require learning the embedding, not the
    identity. The frozen teacher's targets come from one encode. Returns
    (student, held-out MSE, loss curve).
    """
    dc = inputs.distill
    x_student = _clean_pairs(inputs, dc.corpus_size + dc.held_out, "distill_data").x_b
    targets, _ = encode_batch(teacher.text_encoder, x_student @ teacher.view.T)
    split = dc.corpus_size
    student = init_params(
        stage_seed(inputs.seed, "student_init"), inputs.data.d_b, inputs.encoder.hidden, inputs.encoder.embed_dim
    )
    student, curve = run_distillation(
        targets[:split], student, x_student[:split], dc.steps, dc.base_lr, dc.batch_size, inputs.seed
    )
    held = distill_mse(targets[split:], student, x_student[split:])
    return student, held, curve


def teacher_and_student(
    inputs: StageInputs, stages: StageCache | None = None
) -> tuple[TeacherBundle, EncoderParams, float]:
    """The teacher, the distilled student and its held-out MSE for ``inputs``.

    Their arrays are read-only, so a run can share them without copying.
    With a cache, a hit returns the stored stages and a miss builds and
    stores them; without one they are built every call.
    """
    key = to_json(inputs)
    if stages is not None and key in stages:
        return stages[key]
    teacher = train_teacher(inputs)
    student, held, _ = distill_student(inputs, teacher)
    for a in (*teacher.key_encoder.arrays(), *teacher.text_encoder.arrays(), teacher.view, *student.arrays()):
        a.flags.writeable = False
    if stages is not None:
        stages[key] = (teacher, student, held)
    return teacher, student, held


def validation_metrics(keys: np.ndarray, queries: np.ndarray) -> dict[str, float]:
    """Retrieval recalls plus match f1 on the validation pairs, given their embeddings row by row.

    The f1 threshold is tuned on the even-indexed pairs and scored on the
    odd-indexed ones.
    """
    n = len(keys)
    truth = np.arange(n)
    b2a = recall_at_k(queries, keys, truth, ks=(1, 5, 10))
    a2b = recall_at_k(keys, queries, truth, ks=(1, 5, 10))
    true_scores = np.sum(keys * queries, axis=1)
    mismatch_scores = np.sum(keys * np.roll(queries, 1, axis=0), axis=1)
    if n >= 2:
        theta = select_threshold(true_scores[0::2], mismatch_scores[0::2])
        f1 = f1_at_threshold(true_scores[1::2], mismatch_scores[1::2], theta)
    else:
        theta = select_threshold(true_scores, mismatch_scores)
        f1 = f1_at_threshold(true_scores, mismatch_scores, theta)
    return {
        "val_f1": f1.f1,
        "val_precision": f1.precision,
        "val_recall": f1.recall,
        "val_r1_b2a": b2a[1],
        "val_r5_b2a": b2a[5],
        "val_r10_b2a": b2a[10],
        "val_r1_a2b": a2b[1],
        "val_r5_a2b": a2b[5],
        "val_r10_a2b": a2b[10],
    }


@dataclass
class RunReport:
    """Metrics, counters and artifacts of one pretraining run."""

    run_id: str
    rows: list[tuple[int, str, float]] = field(default_factory=list)
    timing_rows: list[tuple[int, str, float]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    total_steps: int = 0
    final_retained_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    out_dir: str | None = None

    def log(self, epoch: int, metric: str, value: float) -> None:
        self.rows.append((epoch, metric, float(value)))

    def metric(self, epoch: int, name: str) -> float:
        for e, m, v in self.rows:
            if e == epoch and m == name:
                return v
        raise KeyError(f"metric {name} at epoch {epoch} not recorded")

    def series(self, name: str) -> list[tuple[int, float]]:
        return [(e, v) for e, m, v in self.rows if m == name]


def _epoch_batches(rows: np.ndarray, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    order = substream(seed, "batch", epoch).permutation(rows)
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def _require_validation_pairs(cfg: RunConfig) -> None:
    """Training tunes its f1 threshold on the validation pairs; only eval may run without them.

    The validation pairs are cut from the good pairs, whose count the label
    plan fixes, so a too-large ``n_val`` is refused before any data exists.
    """
    if cfg.n_val < 1:
        raise ConfigError(f"n_val is {cfg.n_val}; pretraining needs at least one validation pair")
    d = cfg.data
    good = largest_remainder_counts(d.n_pairs, (d.f_good, d.f_clean, d.f_noisy))[0]
    if cfg.n_val > good:
        raise ConfigError(f"n_val is {cfg.n_val}, but only {good} of {d.n_pairs} pairs are good")


class PretrainRun:
    """One pretraining run; between epochs its whole state is the fields of this object.

    The constructor is the set-up: data and split, teacher and student, MLM
    head, frozen training and validation keys, totals, queue and lr plan.
    Then one ``run_epoch`` per epoch, and ``finish`` writes checkpoints and ``timing.csv``.
    """

    def __init__(self, cfg: RunConfig, out_dir: str | Path | None = None, stages: StageCache | None = None):
        _require_validation_pairs(cfg)
        self.cfg = cfg
        self.out = Path(out_dir) if out_dir is not None else None
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
            save_config(self.out / "config.json", cfg)

        self.report = RunReport(run_id=cfg.run_id(), out_dir=str(self.out) if self.out else None)
        self.report.counters = {
            "pairs_scored": 0,
            "filter_events": 0,
            "mlm_steps": 0,
        }

        self.train, self.val = generate_rows(cfg.data, split_rows(label_plan(cfg.data), cfg.n_val, cfg.seed))

        teacher, student, held_mse = teacher_and_student(StageInputs.of(cfg), stages)
        self.report.log(0, "distill_held_mse", held_mse)

        self.state = EncoderPairState(
            key_encoder=teacher.key_encoder,
            query_encoder=student,
            mlm=init_mlm_head(
                stage_seed(cfg.seed, "head_init"), cfg.data.vocab, cfg.data.d_b, cfg.encoder.embed_dim
            ),
        )

        # Key embeddings are computed once with the frozen tower and reused all run.
        self.key_matrix, _ = encode_batch(self.state.key_encoder, self.train.x_a)
        self.val_keys, _ = encode_batch(self.state.key_encoder, self.val.x_a)

        # Curation state and step ids are training rows; train.ids (increasing) maps a row to its output id.
        self.totals = np.zeros(len(self.train))  # smoothed total score of each row
        self.setup_student = student  # read-only; the query tower that scores without refresh
        self.retained = np.arange(len(self.train))  # sorted rows
        self.filtering_active = cfg.filtering_on
        self.queue = MemoryQueue(cfg.train.queue_capacity, cfg.encoder.embed_dim)

        budget = cfg.train.step_budget
        self.plan_steps = (
            budget
            if budget is not None
            else cfg.train.epochs * ceil(len(self.train) / cfg.train.batch_pairs)
        )
        self.warmup = int(round(cfg.train.warmup_frac * self.plan_steps))
        self.regular_term = 1.0

    def key_lookup(self, rows: np.ndarray) -> np.ndarray:
        return self.key_matrix[rows]

    def out_of_steps(self) -> bool:
        budget = self.cfg.train.step_budget
        return budget is not None and self.state.step >= budget

    def run_epoch(self, epoch: int) -> None:
        """Prune (while filtering), train one pass, validate, test the stop rule.

        Ends by rewriting ``metrics.csv``, so a run that fails later keeps
        every finished epoch's rows.
        """
        cfg, out, train, report, counters = self.cfg, self.out, self.train, self.report, self.report.counters
        cap = cfg.train.filter_epochs_max
        if cap is not None and counters["filter_events"] >= cap:
            self.filtering_active = False
        if self.filtering_active:
            # Scoring precedes training, so the live pair is the shadow refreshed at the epoch boundary.
            before = self.retained
            query_encoder = self.state.query_encoder if cfg.shadow_refresh_on else self.setup_student
            scores = score_pairs(self.key_matrix[before], query_encoder, train.x_b[before])
            update_total_scores(self.totals, before, scores, cfg.train.alpha)
            counters["pairs_scored"] += len(scores)
            self.retained = np.sort(rank_and_filter(self.totals, before, cfg.train.keep_fraction))
            counters["filter_events"] += 1
            # Label objects, not codes: perfbench/spans.py reads labels[i].tag from these arguments.
            ratio = filtering_ratio_report(before, self.retained, np.array(list(Label), dtype=object)[train.labels])
            defined = np.isfinite(ratio.good_retention) and np.isfinite(ratio.noisy_retention)
            if defined and ratio.good_retention > 0:
                self.regular_term *= ratio.noisy_retention / ratio.good_retention
            report.log(epoch, "retention_good", ratio.good_retention)
            report.log(epoch, "retention_noisy", ratio.noisy_retention)
            report.log(epoch, "regular_term", self.regular_term)
            if out is not None:
                write_ledger_dump(
                    out / f"ledger_epoch{epoch}.csv", train.ids[before], scores, self.totals[before],
                    np.isin(before, self.retained), train.labels[before],
                )

        comp = noise_composition(train.labels[self.retained])
        report.log(epoch, "retained_count", len(self.retained))
        for tag in ("good", "clean", "noisy"):
            report.log(epoch, f"frac_{tag}", comp[tag])

        loss_c_sum, loss_m_sum, mlm_steps = 0.0, 0.0, 0
        t_start = time.perf_counter()
        start_step = self.state.step
        mask_streams = Substreams(cfg.seed, "mask")
        for rows in _epoch_batches(self.retained, cfg.train.batch_pairs, cfg.seed, epoch):
            if self.out_of_steps():
                break
            pair_batch = PairBatch(ids=rows, x_a=train.x_a[rows], x_b=train.x_b[rows])
            lr = cosine_warmup_lr(self.state.step, self.warmup, self.plan_steps, cfg.train.base_lr)
            if self.filtering_active and cfg.train.batch_text > 0:
                text_rng = mask_streams.at(self.state.step)
                pick = text_rng.integers(0, len(train), size=cfg.train.batch_text)
                masked = mask_batch(
                    train.tokens[pick],
                    cfg.train.p_mask,
                    cfg.train.p_replace,
                    text_rng,
                    cfg.data.vocab,
                )
                loss_c, loss_m = combined_step(
                    self.state, self.queue, pair_batch, masked, cfg.train.batch_text / cfg.train.batch_pairs,
                    cfg.train.tau, lr, cfg.train.weight_decay, self.key_lookup,
                )
                loss_m_sum += loss_m
                mlm_steps += 1
                counters["mlm_steps"] += 1
            else:
                loss_c = training_step(
                    self.state, self.queue, pair_batch, cfg.train.tau, lr,
                    cfg.train.weight_decay, self.key_lookup,
                )
            loss_c_sum += loss_c
        elapsed = time.perf_counter() - t_start
        epoch_steps = self.state.step - start_step
        report.total_steps = self.state.step

        if epoch_steps:
            report.log(epoch, "train_loss", loss_c_sum / epoch_steps)
            report.log(epoch, "mlm_loss", loss_m_sum / mlm_steps if mlm_steps else 0.0)
            report.timing_rows.append((epoch, "step_time_mean_s", elapsed / epoch_steps))
        report.log(epoch, "steps_cum", report.total_steps)

        val_queries, _ = encode_batch(self.state.query_encoder, self.val.x_b)
        vm = validation_metrics(self.val_keys, val_queries)
        for name, value in vm.items():
            report.log(epoch, name, value)

        history = [f1 for _, f1 in report.series("val_f1")]
        if self.filtering_active and cfg.stop.enabled and check_stop(history, cfg.stop):
            self.filtering_active = False
        report.log(epoch, "filtering_active", float(self.filtering_active))
        if out is not None:
            write_metrics_csv(out / "metrics.csv", report.run_id, report.rows)

    def finish(self) -> RunReport:
        """Write the checkpoints and ``timing.csv``; return the report."""
        self.report.final_retained_ids = self.train.ids[self.retained]
        if self.out is not None:
            ck = self.out / "checkpoints"
            ck.mkdir(exist_ok=True)
            save_params(ck / "key.ecpm", self.state.key_encoder)
            save_params(ck / "query.ecpm", self.state.query_encoder)
            # The token lift is frozen and not written: init_mlm_head with the run's "head_init" seed rebuilds it.
            write_store(ck / "mlm_head.ecst", np.vstack([self.state.mlm.w, self.state.mlm.b[None, :]]))
            write_metrics_csv(self.out / "timing.csv", self.report.run_id, self.report.timing_rows)
        return self.report


def pretrain(
    cfg: RunConfig, out_dir: str | Path | None = None, stages: StageCache | None = None
) -> RunReport:
    """Run the full pipeline and return its report.

    Per epoch: score the retained pairs with the shadow (the frozen keys
    against the query tower as it stands at the epoch boundary, or against
    the set-up student without ``shadow_refresh_on``), fold the scores into
    smoothed totals, keep the top fraction, train one pass (contrastive plus
    weighted masked-token loss while filtering), evaluate, and test the stop
    rule. Once filtering stops, training continues contrastive-only on
    the frozen subset. With ``filtering_on`` false the loop is the plain
    baseline over the full noisy set. ``stages`` lets runs with equal
    ``StageInputs`` share one teacher and student (see
    ``teacher_and_student``).
    """
    run = PretrainRun(cfg, out_dir, stages)
    for epoch in range(1, cfg.train.epochs + 1):
        if run.out_of_steps():
            break
        run.run_epoch(epoch)
    return run.finish()


def cmd_gen_data(cfg: RunConfig, out_dir: str | Path) -> dict[str, str]:
    """Write the dataset manifest and raw-vector stores, one generated block at a time.

    All three files are written to temporary siblings and moved into place
    only after the last block, so an error leaves any earlier output as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = cfg.data
    with ExitStack() as files:
        manifest = files.enter_context(atomic_open(out / "manifest.jsonl", "w", encoding="utf-8"))
        append_a = files.enter_context(appending_store(out / "x_a.ecst", d.d_a, d.n_pairs))
        append_b = files.enter_context(appending_store(out / "x_b.ecst", d.d_b, d.n_pairs))
        for block in generate_blocks(d):
            write_manifest_lines(manifest, block)
            append_a(block.x_a)
            append_b(block.x_b)
    save_config(out / "config.json", cfg)
    return {
        "manifest": str(out / "manifest.jsonl"),
        "x_a": str(out / "x_a.ecst"),
        "x_b": str(out / "x_b.ecst"),
    }


def cmd_distill(cfg: RunConfig, out_dir: str | Path) -> float:
    """Teacher pretraining plus distillation; writes checkpoints and the curve."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(out / "config.json", cfg)
    inputs = StageInputs.of(cfg)
    teacher = train_teacher(inputs)
    student, held, curve = distill_student(inputs, teacher)
    save_params(out / "teacher_key.ecpm", teacher.key_encoder)
    save_params(out / "teacher_text.ecpm", teacher.text_encoder)
    save_params(out / "student.ecpm", student)
    write_csv(out / "distill_curve.csv", ["step", "loss"], ([i, repr(loss)] for i, loss in enumerate(curve)))
    write_csv(
        out / "distill_summary.csv",
        ["metric", "value"],
        [["held_out_mse", repr(held)], ["target_mse", repr(cfg.distill.target_mse)]],
    )
    return held


def cmd_eval(
    checkpoint_dir: str | Path,
    cfg: RunConfig,
    out_dir: str | Path,
    data_dir: str | Path | None = None,
) -> dict[str, float]:
    """Evaluate a saved encoder pair; writes one metrics CSV.

    It scores the validation pairs, or every pair when ``n_val`` is 0, and
    holds only those rows. With ``data_dir`` one pass over the manifest
    keeps the labels, and the rows are then read from the stores; without
    it, the labels come from the label plan and the rows are kept from one
    generation pass, block by block.
    """
    ck = Path(checkpoint_dir)
    try:
        key_enc = load_params(ck / "key.ecpm")
        query_enc = load_params(ck / "query.ecpm")
        if data_dir is not None:
            labels, x_a, x_b = _read_eval_rows(Path(data_dir), cfg)
        else:
            (part,) = generate_rows(cfg.data, [_eval_rows(label_plan(cfg.data), cfg)])
            labels, x_a, x_b = part.labels, part.x_a, part.x_b
    except FileNotFoundError as e:
        raise FormatError(f"{e.filename}: no such file") from e
    if not len(labels):
        raise EmptySet("no pairs to evaluate")
    keys, _ = encode_batch(key_enc, x_a)
    queries, _ = encode_batch(query_enc, x_b)
    metrics = validation_metrics(keys, queries)
    comp = noise_composition(labels)
    for tag, v in comp.items():
        metrics[f"frac_{tag}"] = v
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out / "eval.csv", cfg.run_id(), [(0, k, v) for k, v in sorted(metrics.items())])
    return metrics


def _eval_rows(labels: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """The sorted rows eval scores: the validation rows, or every row when ``n_val`` is 0."""
    return split_rows(labels, cfg.n_val, cfg.seed)[1] if cfg.n_val else np.arange(len(labels))


def _check_row_counts(d: Path, n_rows: int, sa: StoreHandle, sb: StoreHandle) -> None:
    if not n_rows == len(sa) == len(sb):
        raise FormatError(f"{d}: manifest has {n_rows} rows, x_a.ecst {len(sa)}, x_b.ecst {len(sb)}")


def _read_eval_rows(d: Path, cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, ``x_a`` and ``x_b`` of the rows eval scores, read from a gen-data output directory."""
    labels = read_manifest_labels(d / "manifest.jsonl")
    with StoreHandle(d / "x_a.ecst") as sa, StoreHandle(d / "x_b.ecst") as sb:
        _check_row_counts(d, len(labels), sa, sb)
        rows = _eval_rows(labels, cfg)
        return labels[rows], sa.read_rows(rows), sb.read_rows(rows)


def load_dataset_dir(data_dir: str | Path, cfg: GenConfig) -> Dataset:
    """Rebuild a whole Dataset from a gen-data output directory."""
    d = Path(data_dir)
    ids, labels, tokens = read_manifest(d / "manifest.jsonl")
    with StoreHandle(d / "x_a.ecst") as sa, StoreHandle(d / "x_b.ecst") as sb:
        _check_row_counts(d, len(ids), sa, sb)
        rows = np.arange(len(ids))
        return Dataset(ids, labels, sa.read_rows(rows), sb.read_rows(rows), tokens, cfg)


SWEEP_AXES = {
    "lambda": "train.keep_fraction",
    "queue": "train.queue_capacity",
    "text_batch": "train.batch_text",
}

DEFAULT_GRIDS = {
    "lambda": [0.7, 0.8, 0.9, 0.99],
    "queue": [8, 64, 512, 4096],
    "text_batch": [30, 40, 50, 60],
}


def cmd_sweep(
    cfg: RunConfig,
    axis: str,
    values: list | None,
    seeds: list,
    out_dir: str | Path,
) -> list[dict]:
    """Run the pipeline per (value, seed) and emit a comparison CSV; values and seeds may be strings.

    Every grid point is built, validated and checked to be distinct before
    anything runs. The sweep axes lie outside ``StageInputs``, so the points
    of one seed share one teacher and student through a cache that lives
    for this call.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r} (choose from {sorted(SWEEP_AXES)})")
    dotted = SWEEP_AXES[axis]
    try:
        seeds = [int(s) for s in seeds]
    except ValueError as e:
        raise ConfigError(f"{axis} sweep: malformed seed ({e})") from e
    _require_validation_pairs(cfg)
    points = [
        apply_override(cfg.with_seed(seed), dotted, str(raw))
        for raw in (values if values else DEFAULT_GRIDS[axis])
        for seed in seeds
    ]
    if not points:
        raise ConfigError(f"{axis} sweep: no seeds given")
    grid = [(reduce(getattr, dotted.split("."), p), p.seed) for p in points]
    if len(set(grid)) < len(grid):
        raise ConfigError(f"{axis} sweep: a (value, seed) point repeats in {grid}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results = []
    stages: StageCache = {}
    for variant, (value, _) in zip(points, grid):
        sub = out / f"{axis}_{value}_seed{variant.seed}"
        report = pretrain(variant, out_dir=sub, stages=stages)
        last_epoch = max(e for e, _, _ in report.rows)
        row = {
            "axis": axis,
            "value": value,
            "seed": variant.seed,
            "val_f1": report.metric(last_epoch, "val_f1"),
            "val_r1_b2a": report.metric(last_epoch, "val_r1_b2a"),
            "frac_noisy": report.metric(last_epoch, "frac_noisy"),
            "retained_count": report.metric(last_epoch, "retained_count"),
            "total_steps": report.total_steps,
            "step_time_s": report.timing_rows[-1][2],
        }
        results.append(row)

    names = list(results[0])
    write_csv(out / f"sweep_{axis}.csv", names, ([row[k] for k in names] for row in results))
    return results


def benchmark_step_time(
    cfg: RunConfig, capacities: tuple[int, ...], steps: int = 60, reps: int = 5
) -> list[float]:
    """Seconds per training step against a full queue of each given size.

    Each of ``reps`` repetitions times one block of ``steps`` steps per size
    in turn, so a slow spell of the host hits every size alike; a block's
    first step is untimed, so no timed step refills a cache that another size
    left. A size's figure is its fastest block's per-step mean in this
    thread's CPU time, which leaves out time given to other processes (not
    their slowing of a shared core) and BLAS workers spinning between calls.
    As in a run, each step gathers its keys from one encode of the frozen
    tower, made outside the timed blocks.
    """
    rng = substream(cfg.seed, "bench")
    d_e = cfg.encoder.embed_dim
    key_enc = init_params(stage_seed(cfg.seed, "key_init"), cfg.data.d_a, cfg.encoder.hidden, d_e)
    query_enc = init_params(stage_seed(cfg.seed, "text_init"), cfg.data.d_b, cfg.encoder.hidden, d_e)
    n = cfg.train.batch_pairs
    x_a = rng.standard_normal((n, cfg.data.d_a))
    x_b = rng.standard_normal((n, cfg.data.d_b))
    fill = rng.standard_normal((max(capacities), d_e))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    keys, _ = encode_batch(key_enc, x_a)
    # Step s takes ids s*n onwards and the fill's ids are negative, so no queue entry shares a batch id.
    batches = [PairBatch(ids=np.arange(s * n, (s + 1) * n), x_a=x_a, x_b=x_b) for s in range(steps + 1)]
    best = [float("inf")] * len(capacities)
    for _ in range(reps):
        for i, capacity in enumerate(capacities):
            state = EncoderPairState(key_encoder=key_enc, query_encoder=query_enc)
            queue = MemoryQueue(capacity, d_e)
            queue.push(fill[:capacity], np.arange(-capacity, 0))
            for s, batch in enumerate(batches):
                if s == 1:  # step 0 is the untimed one
                    t0 = time.thread_time()
                training_step(
                    state, queue, batch, cfg.train.tau, cfg.train.base_lr, cfg.train.weight_decay,
                    lambda ids: keys[ids % n],
                )
            best[i] = min(best[i], (time.thread_time() - t0) / steps)
    return best
