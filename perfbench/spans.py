"""Outside-in tracing of pairsieve, and the per-layer metrics derived from it.

``install`` wraps the public functions of every pairsieve layer from the
outside: each call records a span (name, start, end, parent, tag) in
memory, plus exact work counters. Nothing under ``src/`` is edited; the
wrapper replaces the function in every pairsieve module namespace that
bound it by name, and methods are replaced on their class. A target that
no longer exists raises ``MissingTarget``, so a rename cannot silently
drop a layer from the trace.

``dump`` writes the spans when the traced process ends; ``load``,
``self_times`` and ``layer_metrics`` turn them into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from stats import median, percentile


class MissingTarget(RuntimeError):
    """A function or method named in TARGETS is absent from pairsieve."""


# count(counters, args, kwargs, result) -> span tag (int) or None
Counter = Callable[[dict, tuple, dict, object], "int | None"]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _rows_generated(c, args, kwargs, result):
    c["data.rows_generated"] += len(result)


def _rows_encoded(c, args, kwargs, result):
    c["encoder.rows_encoded"] += result[0].shape[0]


def _logit_cells(c, args, kwargs, result):
    batch = _arg(args, kwargs, 0, "batch")
    queue = _arg(args, kwargs, 1, "queue")
    n = batch.queries.shape[0]
    m = len(queue) or n  # an empty queue falls back to in-batch negatives
    c["contrastive.logit_cells"] += n * m
    return queue.capacity


def _push_rows(c, args, kwargs, result):
    c["contrastive.push_rows"] += len(_arg(args, kwargs, 2, "ids"))


def _pairs_scored(c, args, kwargs, result):
    c["curation.pairs_scored"] += len(result)


def _prunes(c, args, kwargs, result):
    before = _arg(args, kwargs, 0, "before")
    after = set(int(i) for i in _arg(args, kwargs, 1, "after"))
    labels = _arg(args, kwargs, 2, "labels")
    pruned = [int(i) for i in before if int(i) not in after]
    c["curation.pruned"] += len(pruned)
    c["curation.pruned_noisy"] += sum(labels[i].tag == "noisy" for i in pruned)


def _masked_positions(c, args, kwargs, result):
    c["mlm.masked_positions"] += len(result.mask_rows)


def _bytes_written(c, args, kwargs, result):
    from pairsieve.store import HEADER_SIZE

    c["store.bytes_written"] += HEADER_SIZE + result.count * result.dim * 8


@dataclass(frozen=True)
class Target:
    module: str  # module that defines the function
    attr: str  # "function" or "Class.method"
    span: str  # "<layer>.<name>"
    count: Counter | None = None
    traced_arg: str | None = None  # a callable argument traced as its own span


KEY_LOOKUP_SPAN = "harness.key_lookup"

TARGETS: tuple[Target, ...] = (
    Target("pairsieve.harness", "train_teacher", "harness.train_teacher"),
    Target("pairsieve.harness", "distill_student", "harness.distill_student"),
    Target("pairsieve.harness", "pretrain", "harness.pretrain"),
    Target("pairsieve.harness", "validation_metrics", "harness.validation_metrics"),
    Target("pairsieve.harness", "benchmark_step_time", "harness.benchmark_step_time"),
    Target("pairsieve.harness", "load_dataset_dir", "harness.load_dataset_dir"),
    Target("pairsieve.harness", "cmd_gen_data", "harness.cmd_gen_data"),
    Target("pairsieve.harness", "cmd_sweep", "harness.cmd_sweep"),
    Target("pairsieve.harness", "cmd_eval", "harness.cmd_eval"),
    Target("pairsieve.data", "generate_dataset", "data.generate_dataset", _rows_generated),
    Target("pairsieve.data", "Dataset.rows_for_ids", "data.rows_for_ids"),
    Target("pairsieve.data", "split_validation", "data.split_validation"),
    Target("pairsieve.data", "write_manifest", "data.write_manifest"),
    Target("pairsieve.data", "read_manifest", "data.read_manifest"),
    Target("pairsieve.rng", "substream", "rng.substream"),
    Target("pairsieve.encoder", "encode_batch", "encoder.encode_batch", _rows_encoded),
    Target("pairsieve.encoder", "encode_backward", "encoder.encode_backward"),
    Target("pairsieve.encoder", "sgd_step", "encoder.sgd_step"),
    Target("pairsieve.encoder", "save_params", "encoder.save_params"),
    Target("pairsieve.encoder", "load_params", "encoder.load_params"),
    Target("pairsieve.contrastive", "contrastive_loss", "contrastive.contrastive_loss", _logit_cells),
    Target("pairsieve.contrastive", "MemoryQueue.push", "contrastive.push", _push_rows),
    Target("pairsieve.contrastive", "MemoryQueue.snapshot", "contrastive.snapshot"),
    Target(
        "pairsieve.contrastive", "training_step", "contrastive.training_step",
        traced_arg="key_lookup",
    ),
    Target("pairsieve.curation", "score_pairs", "curation.score_pairs", _pairs_scored),
    Target("pairsieve.curation", "update_total_scores", "curation.update_total_scores"),
    Target("pairsieve.curation", "rank_and_filter", "curation.rank_and_filter"),
    Target("pairsieve.curation", "filtering_ratio_report", "curation.filtering_ratio_report", _prunes),
    Target("pairsieve.curation", "write_ledger_dump", "curation.write_ledger_dump"),
    Target("pairsieve.mlm", "mask_batch", "mlm.mask_batch", _masked_positions),
    Target("pairsieve.mlm", "mlm_loss", "mlm.mlm_loss"),
    Target("pairsieve.mlm", "combined_step", "mlm.combined_step", traced_arg="key_lookup"),
    Target("pairsieve.distill", "run_distillation", "distill.run_distillation"),
    Target("pairsieve.distill", "distill_loss", "distill.distill_loss"),
    Target("pairsieve.metrics", "recall_at_k", "metrics.recall_at_k"),
    Target("pairsieve.metrics", "select_threshold", "metrics.select_threshold"),
    Target("pairsieve.metrics", "noise_composition", "metrics.noise_composition"),
    Target("pairsieve.metrics", "export_distribution", "metrics.export_distribution"),
    Target("pairsieve.metrics", "write_distribution", "metrics.write_distribution"),
    Target("pairsieve.metrics", "write_metrics_csv", "metrics.write_metrics_csv"),
    Target("pairsieve.store", "write_store", "store.write_store", _bytes_written),
    Target("pairsieve.store", "StoreHandle.read_at", "store.read_at"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    tag: int | None


class Tracer:
    """In-memory span and counter log, plus the bindings it replaced."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent, tag]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, count: Counter | None = None,
             traced_arg: str | None = None) -> Callable:
        records, stack, counters = self.records, self._stack, self.counters
        sig = inspect.signature(fn) if traced_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                inner = bound.arguments.get(traced_arg)
                if inner is not None:
                    bound.arguments[traced_arg] = self.wrap(inner, KEY_LOOKUP_SPAN)
                    args, kwargs = bound.args, bound.kwargs
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(records))
            records.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[4] = count(counters, args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def dump(self, path: str | Path) -> None:
        """Write counters and spans: one JSON header line, then one TSV line per span."""
        with open(path, "w") as f:
            f.write(json.dumps(dict(self.counters), sort_keys=True) + "\n")
            for name, start, end, parent, tag in self.records:
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{'' if tag is None else tag}\n")


def _pairsieve_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "pairsieve" or n.startswith("pairsieve.")]


def install(targets: tuple[Target, ...] = TARGETS) -> Tracer:
    """Wrap every target and return the tracer recording their calls.

    Raises MissingTarget, before replacing anything, when a target's module,
    class or function does not exist.
    """
    importlib.import_module("pairsieve.cli")  # binds every layer the CLI can reach
    resolved = []
    for t in targets:
        try:
            owner = importlib.import_module(t.module)
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError) as e:
            raise MissingTarget(f"trace target {t.module}.{t.attr} not found: {e}") from e
        resolved.append((t, owner, leaf, original))

    tracer = Tracer()
    modules = _pairsieve_modules()
    for t, owner, leaf, original in resolved:
        wrapper = tracer.wrap(original, t.span, t.count, t.traced_arg)
        if isinstance(owner, type):
            tracer._rebind(owner, leaf, wrapper)
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    tracer._rebind(mod, attr, wrapper)
    return tracer


def load(path: str | Path) -> tuple[list[Span], dict[str, float]]:
    with open(path) as f:
        counters = json.loads(f.readline())
        spans = []
        for line in f:
            name, start, end, parent, tag = line.rstrip("\n").split("\t")
            spans.append(Span(name, float(start), float(end), int(parent), int(tag) if tag else None))
    return spans, counters


def merge(parts: list[tuple[list[Span], dict[str, float]]]) -> tuple[list[Span], dict[str, float]]:
    """Concatenate the traces of several processes, re-basing parent indices."""
    spans: list[Span] = []
    counters: dict[str, float] = defaultdict(float)
    for part_spans, part_counters in parts:
        base = len(spans)
        spans.extend(s._replace(parent=s.parent + base if s.parent >= 0 else -1) for s in part_spans)
        for k, v in part_counters.items():
            counters[k] += v
    return spans, dict(counters)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _outermost(spans: list[Span]) -> list[bool]:
    """False for a span nested (at any depth) inside a span of the same name."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


# name, unit, better, kind, source. Kinds:
#   self    summed self time of the spans named source (s)
#   total   summed duration of the outermost spans named source (s)
#   calls   number of spans named source
#   counter a work counter recorded by a Target
#   p50/p95 percentile of the durations of spans named in source (ms)
#   qcall   median duration of source[0] spans tagged source[1] (ms), 0 when none
#   ratio   counters[source[0]] / counters[source[1]], 0 when the base is 0
#   layer   summed self time of every span whose name starts with "source."
STEP_SPANS = ("contrastive.training_step", "mlm.combined_step")
LAYERS = ("cli", "harness", "data", "rng", "encoder", "contrastive", "curation", "mlm", "distill", "metrics", "store")

LAYER_METRICS: tuple[tuple[str, str, str, str, object], ...] = (
    ("harness.train_teacher.self_s", "s", "lower", "self", "harness.train_teacher"),
    ("harness.teacher_runs", "count", "lower", "calls", "harness.train_teacher"),
    ("harness.distill_student.self_s", "s", "lower", "self", "harness.distill_student"),
    ("harness.pretrain.self_s", "s", "lower", "self", "harness.pretrain"),
    ("harness.key_lookup.s", "s", "lower", "total", KEY_LOOKUP_SPAN),
    ("harness.validation_metrics.self_s", "s", "lower", "self", "harness.validation_metrics"),
    ("harness.benchmark_step_time.self_s", "s", "lower", "self", "harness.benchmark_step_time"),
    ("harness.load_dataset_dir.self_s", "s", "lower", "self", "harness.load_dataset_dir"),
    ("harness.step_ms.p50", "ms", "lower", "p50", STEP_SPANS),
    ("harness.step_ms.p95", "ms", "lower", "p95", STEP_SPANS),
    ("harness.step_ms.count", "count", "lower", "calls", STEP_SPANS),
    ("data.generate_dataset.self_s", "s", "lower", "self", "data.generate_dataset"),
    ("data.rows_generated", "count", "lower", "counter", "data.rows_generated"),
    ("data.rows_for_ids.s", "s", "lower", "total", "data.rows_for_ids"),
    ("data.rows_for_ids.calls", "count", "lower", "calls", "data.rows_for_ids"),
    ("data.split_validation.s", "s", "lower", "total", "data.split_validation"),
    ("data.write_manifest.s", "s", "lower", "total", "data.write_manifest"),
    ("data.read_manifest.s", "s", "lower", "total", "data.read_manifest"),
    ("rng.substream.s", "s", "lower", "total", "rng.substream"),
    ("rng.substream.calls", "count", "lower", "calls", "rng.substream"),
    ("encoder.encode_batch.s", "s", "lower", "total", "encoder.encode_batch"),
    ("encoder.rows_encoded", "count", "lower", "counter", "encoder.rows_encoded"),
    ("encoder.encode_backward.s", "s", "lower", "total", "encoder.encode_backward"),
    ("encoder.sgd_step.s", "s", "lower", "total", "encoder.sgd_step"),
    ("encoder.sgd_calls", "count", "lower", "calls", "encoder.sgd_step"),
    ("encoder.save_params.s", "s", "lower", "total", "encoder.save_params"),
    ("encoder.load_params.s", "s", "lower", "total", "encoder.load_params"),
    ("contrastive.contrastive_loss.self_s", "s", "lower", "self", "contrastive.contrastive_loss"),
    ("contrastive.loss_calls", "count", "lower", "calls", "contrastive.contrastive_loss"),
    ("contrastive.logit_cells", "count", "lower", "counter", "contrastive.logit_cells"),
    ("contrastive.loss_ms.q256", "ms", "lower", "qcall", ("contrastive.contrastive_loss", 256)),
    ("contrastive.loss_ms.q512", "ms", "lower", "qcall", ("contrastive.contrastive_loss", 512)),
    ("contrastive.loss_ms.q2048", "ms", "lower", "qcall", ("contrastive.contrastive_loss", 2048)),
    ("contrastive.loss_ms.q4096", "ms", "lower", "qcall", ("contrastive.contrastive_loss", 4096)),
    ("contrastive.push.s", "s", "lower", "total", "contrastive.push"),
    ("contrastive.push_rows", "count", "lower", "counter", "contrastive.push_rows"),
    ("contrastive.snapshot.s", "s", "lower", "total", "contrastive.snapshot"),
    ("contrastive.training_step.self_s", "s", "lower", "self", "contrastive.training_step"),
    ("curation.score_pairs.s", "s", "lower", "total", "curation.score_pairs"),
    ("curation.pairs_scored", "count", "lower", "counter", "curation.pairs_scored"),
    ("curation.update_total_scores.s", "s", "lower", "total", "curation.update_total_scores"),
    ("curation.rank_and_filter.s", "s", "lower", "total", "curation.rank_and_filter"),
    ("curation.filtering_ratio_report.s", "s", "lower", "total", "curation.filtering_ratio_report"),
    ("curation.write_ledger_dump.s", "s", "lower", "total", "curation.write_ledger_dump"),
    ("curation.prune_precision", "ratio", "higher", "ratio", ("curation.pruned_noisy", "curation.pruned")),
    ("mlm.mask_batch.s", "s", "lower", "total", "mlm.mask_batch"),
    ("mlm.masked_positions", "count", "lower", "counter", "mlm.masked_positions"),
    ("mlm.mlm_loss.s", "s", "lower", "total", "mlm.mlm_loss"),
    ("mlm.combined_step.self_s", "s", "lower", "self", "mlm.combined_step"),
    ("distill.run_distillation.self_s", "s", "lower", "self", "distill.run_distillation"),
    ("distill.distill_loss.s", "s", "lower", "total", "distill.distill_loss"),
    ("distill.steps", "count", "lower", "calls", "distill.distill_loss"),
    ("metrics.recall_at_k.s", "s", "lower", "total", "metrics.recall_at_k"),
    ("metrics.select_threshold.s", "s", "lower", "total", "metrics.select_threshold"),
    ("metrics.noise_composition.s", "s", "lower", "total", "metrics.noise_composition"),
    ("metrics.distribution_dump.s", "s", "lower", "total", ("metrics.export_distribution", "metrics.write_distribution")),
    ("metrics.write_metrics_csv.s", "s", "lower", "total", "metrics.write_metrics_csv"),
    ("store.write_store.s", "s", "lower", "total", "store.write_store"),
    ("store.bytes_written", "bytes", "lower", "counter", "store.bytes_written"),
    ("store.read_at.s", "s", "lower", "total", "store.read_at"),
    ("store.rows_read", "count", "lower", "calls", "store.read_at"),
) + tuple((f"layer.{layer}.self_s", "s", "lower", "layer", layer) for layer in LAYERS)


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Evaluate LAYER_METRICS over one trace."""
    own = self_times(spans)
    outer = _outermost(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def names(source) -> tuple[str, ...]:
        return source if isinstance(source, tuple) else (source,)

    def durations(source) -> list[float]:
        return [spans[i].end - spans[i].start for n in names(source) for i in by_name[n]]

    out: dict[str, float] = {}
    for metric, _unit, _better, kind, source in LAYER_METRICS:
        if kind == "self":
            value = sum(own[i] for i in by_name[source])
        elif kind == "total":
            value = sum(spans[i].end - spans[i].start for n in names(source) for i in by_name[n] if outer[i])
        elif kind == "calls":
            value = float(sum(len(by_name[n]) for n in names(source)))
        elif kind == "counter":
            value = float(counters.get(source, 0.0))
        elif kind in ("p50", "p95"):
            d = durations(source)
            value = 1e3 * percentile(d, float(kind[1:])) if d else 0.0
        elif kind == "qcall":
            name, tag = source
            d = [spans[i].end - spans[i].start for i in by_name[name] if spans[i].tag == tag]
            value = 1e3 * median(d) if d else 0.0
        elif kind == "ratio":
            num, den = (counters.get(k, 0.0) for k in source)
            value = num / den if den else 0.0
        elif kind == "layer":
            value = sum(own[i] for n, idx in by_name.items() if n.startswith(source + ".") for i in idx)
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = value
    return out
