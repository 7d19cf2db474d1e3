"""Per-epoch pair scoring, smoothed totals, and rank-and-filter pruning.

Once per epoch the shadow, the model as it stands at the epoch boundary,
scores every retained pair; totals are exponentially smoothed (total <-
alpha * total + score); pairs are re-ranked by total and only the top
keep_fraction survive into the next epoch. Successive epochs thus
ensemble the judgments of successive model snapshots. Pruned pairs are
never re-admitted. Between epochs the curation state is one float64 array
of totals over the training rows; an epoch's scores live only until its
dump is written.

The key tower is frozen, so the run encodes the keys once
(``PretrainRun.key_matrix``) and ``score_pairs`` takes their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import LABEL_TAGS, Label
from .encoder import ROW_BLOCK, EncoderParams, encode_batch, row_blocks
from .errors import ConfigError, EmptySet, LedgerMiss, NonFiniteLoss
from .store import atomic_open


@dataclass
class StopRule:
    """Stop filtering once validation stops improving."""

    min_improvement: float = 0.005
    patience: int = 2
    enabled: bool = True

    def __post_init__(self):
        if self.min_improvement < 0:
            raise ConfigError("min_improvement must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")


def score_pairs(keys: np.ndarray, query_encoder: EncoderParams, x_b: np.ndarray) -> np.ndarray:
    """Cosine correlation of each pair: a frozen key embedding against the query tower's encoding of ``x_b``."""
    queries, _ = encode_batch(query_encoder, x_b)
    return np.sum(keys * queries, axis=1)  # unit rows: dot == cosine


def update_total_scores(totals: np.ndarray, rows: np.ndarray, scores: np.ndarray, alpha: float) -> None:
    """Apply total <- alpha * total + score to ``totals`` for every scored row, in place."""
    rows = np.asarray(rows, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    # Check everything before the totals change: a NaN total would make the rank order input-dependent.
    outside = (rows < 0) | (rows >= len(totals))
    if outside.any():
        raise LedgerMiss(f"row {rows[outside][0]} not tracked by a ledger of {len(totals)} rows")
    bad = ~np.isfinite(scores)
    if bad.any():
        raise NonFiniteLoss(f"score {scores[bad][0]} for row {rows[bad][0]} is not finite")
    totals[rows] = alpha * totals[rows] + scores


def rank_and_filter(totals: np.ndarray, rows: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Keep the ceil(keep_fraction * n) rows with highest totals, best first.

    Ties break toward the smaller row, which holds the smaller id, so
    pruning is a total order.
    """
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptySet("retained set is empty")
    keep = ceil(keep_fraction * rows.size)
    return rows[np.lexsort((rows, -totals[rows]))][:keep]


def check_stop(history: Sequence[float], rule: StopRule) -> bool:
    """True when the last ``patience`` epochs improved by less than the threshold."""
    if len(history) == 0:
        raise ValueError("history must be non-empty")
    if len(history) <= rule.patience:
        return False
    best_before = max(history[: -rule.patience])
    best_recent = max(history[-rule.patience :])
    return (best_recent - best_before) < rule.min_improvement


@dataclass
class RetentionReport:
    """Per-epoch survival rates by oracle quality."""

    good_retention: float  # fraction of good-or-clean pairs kept
    noisy_retention: float  # fraction of noisy pairs kept


def filtering_ratio_report(
    before: np.ndarray, after: np.ndarray, labels: np.ndarray
) -> RetentionReport:
    """Compare survival of good-or-clean pairs against noisy ones.

    ``before`` and ``after`` are rows, and ``labels[row]`` is that row's
    label. A class with no members before filtering has no meaningful
    retention; its rate is reported as NaN so consumers can treat it as
    vacuous.
    """
    kept = np.isin(before, after)
    noisy = labels[before] == Label.NOISY
    noisy_before, noisy_after = int(noisy.sum()), int((noisy & kept).sum())
    gc_before, gc_after = len(noisy) - noisy_before, int(kept.sum()) - noisy_after
    v = gc_after / gc_before if gc_before else float("nan")
    u = noisy_after / noisy_before if noisy_before else float("nan")
    return RetentionReport(good_retention=v, noisy_retention=u)


def write_ledger_dump(
    path: str | Path, ids: np.ndarray, scores: np.ndarray, totals: np.ndarray, retained: np.ndarray, labels: np.ndarray
) -> None:
    """Epoch dump of the pairs the epoch scored: id, epoch score, total, retained flag, label; one line each.

    The arguments are columns of equal length; ``retained`` is a boolean
    column. Each line has the bytes that ``csv.writer`` gives the row with
    the floats as ``repr``, built directly, one block of rows at a time: no
    field holds a comma, quote or line break, so none is quoted.
    """
    flags = np.asarray(retained, dtype=np.int64)
    with atomic_open(path, "w", newline="") as f:
        f.write("id,epoch_score,total_score,retained,oracle_label\r\n")
        for block in row_blocks(len(ids), ROW_BLOCK):  # whole columns as Python lists would outweigh the epoch's arrays
            columns = (ids[block], scores[block], totals[block], flags[block], labels[block])
            f.write("".join(
                f"{rid},{score!r},{total!r},{kept},{LABEL_TAGS[lab]}\r\n"
                for rid, score, total, kept, lab in zip(*(column.tolist() for column in columns))
            ))
