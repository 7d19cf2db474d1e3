"""Retrieval and classification metrics plus score-distribution exports.

Everything here ranks by exact brute-force similarity; at desk scale
there is no reason to approximate, and exactness is what makes the
oracle comparisons in the tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import LABEL_TAGS, Label, write_csv
from .encoder import CELL_BUDGET, row_blocks
from .errors import MissingTruth


def recall_at_k(
    queries: np.ndarray,
    keys: np.ndarray,
    truth: Sequence[int],
    ks: Sequence[int] = (1, 5, 10),
) -> dict[int, float]:
    """Recall@k for each k: the fraction of queries whose true key ranks in the top k by cosine.

    ``truth[i]`` is the key row for query row i. Rows must be unit-norm
    (dot == cosine). Score ties break toward the smaller key index. The
    similarities are scored in blocks of query rows of about
    ``CELL_BUDGET`` cells, never the whole matrix at once. A block of two
    or more rows gives the same products as the whole matrix, so the
    recalls do not depend on the blocks.
    """
    n = queries.shape[0]
    if len(truth) != n:
        raise MissingTruth(f"{n} queries but {len(truth)} ground-truth entries")
    n_keys = keys.shape[0]
    truth = np.asarray(truth, dtype=np.int64)
    if np.any(truth < 0) or np.any(truth >= n_keys):
        raise MissingTruth("ground-truth index out of key range")
    key_index = np.arange(n_keys)
    rank = np.empty(n, dtype=np.int64)  # 0-based
    for block in row_blocks(n, max(2, CELL_BUDGET // max(n_keys, 1))):
        sims = queries[block] @ keys.T
        t = truth[block]
        true_scores = sims[np.arange(len(t)), t][:, None]
        # Rank = number of keys strictly better, plus equal-scored keys with smaller index.
        rank[block] = np.count_nonzero(sims > true_scores, axis=1) + np.count_nonzero(
            (sims == true_scores) & (key_index < t[:, None]), axis=1
        )
        del sims  # before the next block's product exists
    return {int(k): float(np.mean(rank < k)) for k in ks}


@dataclass
class F1Result:
    precision: float
    recall: float
    f1: float


def f1_at_threshold(
    true_scores: np.ndarray, mismatch_scores: np.ndarray, threshold: float
) -> F1Result:
    """Treat score > threshold as a predicted match and score against oracle labels."""
    true_scores = np.asarray(true_scores, dtype=np.float64)
    mismatch_scores = np.asarray(mismatch_scores, dtype=np.float64)
    if true_scores.size == 0 or mismatch_scores.size == 0:
        raise ValueError("both score populations must be non-empty")
    tp = int(np.sum(true_scores > threshold))
    fp = int(np.sum(mismatch_scores > threshold))
    fn = true_scores.size - tp
    if tp + fp == 0:
        return F1Result(0.0, 0.0, 0.0)
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return F1Result(precision, recall, f1)


def select_threshold(true_scores: np.ndarray, mismatch_scores: np.ndarray) -> float:
    """Threshold maximizing ``f1_at_threshold`` over midpoints of the pooled scores; the lowest of equals wins."""
    true_sorted, mism_sorted = np.sort(true_scores), np.sort(mismatch_scores)
    if true_sorted.size == 0 or mism_sorted.size == 0:
        raise ValueError("both score populations must be non-empty")
    # np.unique gives the same for finite scores, but it imports numpy.ma (through np.ma.is_masked) into the process.
    pooled = np.sort(np.concatenate([true_sorted, mism_sorted]))
    pooled = pooled[np.concatenate([[True], pooled[1:] != pooled[:-1]])]
    candidates = np.concatenate([[pooled[0] - 1.0], (pooled[:-1] + pooled[1:]) / 2.0])
    tp = true_sorted.size - np.searchsorted(true_sorted, candidates, side="right")
    fp = mism_sorted.size - np.searchsorted(mism_sorted, candidates, side="right")
    precision = np.divide(tp, tp + fp, out=np.zeros(tp.shape), where=tp > 0)
    recall = tp / true_sorted.size
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(tp.shape), where=tp > 0)
    return float(candidates[np.argmax(f1)])


def noise_composition(codes: np.ndarray) -> dict[str, float]:
    """Exact label fractions of a set of pairs, from their label codes."""
    n = len(codes)
    counts = np.bincount(codes, minlength=3).tolist()
    return {lab.tag: (counts[lab] / n if n else 0.0) for lab in Label}


# No run writes a distribution dump: it is the `retained == 1` rows of the ledger dump. These three stay
# only because perfbench/spans.py TARGETS names the two functions; ROADMAP item 4 deletes them with their targets.
DistributionRow = tuple[int, float, float, str]  # (id, epoch score, total, label)


def export_distribution(
    ids: np.ndarray, scores: np.ndarray, totals: np.ndarray, labels: np.ndarray
) -> list[DistributionRow]:
    """Score-vs-total rows, ready for plotting, from equal-length columns of the pairs to plot."""
    return list(
        zip(
            ids.tolist(),
            scores.tolist(),
            totals.tolist(),
            map(LABEL_TAGS.__getitem__, labels.tolist()),
        )
    )


def write_distribution(path: str | Path, rows: Sequence[DistributionRow]) -> None:
    write_csv(
        path,
        ["id", "s_epoch", "c_total", "label"],
        ([rid, repr(s), repr(c), lab] for rid, s, c, lab in rows),
    )


def write_metrics_csv(path: str | Path, run_id: str, rows: list[tuple[int, str, float]]) -> None:
    """Long-format metrics file: run_id, epoch, metric, value."""
    write_csv(
        path,
        ["run_id", "epoch", "metric", "value"],
        ([run_id, epoch, metric, repr(float(value))] for epoch, metric, value in rows),
    )
