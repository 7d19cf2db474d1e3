"""Per-epoch pair scoring, smoothed totals, and rank-and-filter pruning.

Once per epoch the shadow, the model as it stands at the epoch boundary,
scores every retained pair; totals are exponentially smoothed (total <-
alpha * total + score); pairs are re-ranked by total and only the top
keep_fraction survive into the next epoch. Successive epochs thus
ensemble the judgments of successive model snapshots. Pruned pairs are
never re-admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, isfinite
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset, Label, write_csv
from .encoder import EncoderPairState, encode_batch
from .errors import ConfigError, EmptySet, LedgerMiss, NonFiniteLoss


@dataclass
class ScoreLedger:
    """Per-pair smoothed total and latest epoch score."""

    totals: dict[int, float]
    last: dict[int, float] = field(default_factory=dict)

    @classmethod
    def fresh(cls, ids: Sequence[int]) -> "ScoreLedger":
        return cls(totals={int(i): 0.0 for i in ids})


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


def score_pairs(shadow: EncoderPairState, ds: Dataset, ids: Sequence[int]) -> dict[int, float]:
    """Cosine correlation of each pair under the shadow encoders."""
    if len(ids) == 0:
        return {}
    rows = ds.rows_for_ids(ids)
    keys, _ = encode_batch(shadow.key_encoder, ds.x_a[rows])
    queries, _ = encode_batch(shadow.query_encoder, ds.x_b[rows])
    sims = np.sum(keys * queries, axis=1)  # unit rows: dot == cosine
    return {int(i): float(s) for i, s in zip(ids, sims)}


def update_total_scores(
    ledger: ScoreLedger, scores: Mapping[int, float], alpha: float
) -> ScoreLedger:
    """Apply total <- alpha * total + score for every scored id."""
    # Check everything before the ledger changes: a NaN total would make the rank order input-dependent.
    for rid, s in scores.items():
        if rid not in ledger.totals:
            raise LedgerMiss(f"id {rid} not tracked by ledger")
        if not isfinite(s):
            raise NonFiniteLoss(f"score {s} for id {rid} is not finite")
    for rid, s in scores.items():
        ledger.totals[rid] = alpha * ledger.totals[rid] + s
        ledger.last[rid] = s
    return ledger


def rank_and_filter(
    ledger: ScoreLedger, retained_ids: Sequence[int], keep_fraction: float
) -> list[int]:
    """Keep the ceil(keep_fraction * n) retained ids with highest totals.

    Ties break toward the smaller id, so pruning is a total order.
    """
    if not 0 < keep_fraction <= 1:
        raise ValueError("keep_fraction must be in (0, 1]")
    if len(retained_ids) == 0:
        raise EmptySet("retained set is empty")
    keep = ceil(keep_fraction * len(retained_ids))
    ranked = sorted(retained_ids, key=lambda rid: (-ledger.totals[int(rid)], int(rid)))
    return [int(r) for r in ranked[:keep]]


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
    before: Sequence[int], after: Sequence[int], labels: Mapping[int, Label]
) -> RetentionReport:
    """Compare survival of good-or-clean pairs against noisy ones.

    A class with no members before filtering has no meaningful retention;
    its rate is reported as NaN so consumers can treat it as vacuous.
    """
    after_set = set(int(i) for i in after)
    gc_before = gc_after = noisy_before = noisy_after = 0
    for rid in before:
        rid = int(rid)
        if labels[rid] is Label.NOISY:
            noisy_before += 1
            noisy_after += rid in after_set
        else:
            gc_before += 1
            gc_after += rid in after_set
    v = gc_after / gc_before if gc_before else float("nan")
    u = noisy_after / noisy_before if noisy_before else float("nan")
    return RetentionReport(good_retention=v, noisy_retention=u)


def write_ledger_dump(
    path: str | Path,
    ledger: ScoreLedger,
    all_ids: Sequence[int],
    retained_ids: Sequence[int],
    labels: Mapping[int, Label],
) -> None:
    """Per-pair epoch dump: id, epoch score, total, retained flag, label."""
    retained = set(int(i) for i in retained_ids)
    write_csv(
        path,
        ["id", "epoch_score", "total_score", "retained", "oracle_label"],
        (
            [
                rid,
                repr(ledger.last.get(rid, 0.0)),
                repr(ledger.totals[rid]),
                int(rid in retained),
                labels[rid].tag,
            ]
            for rid in sorted(int(i) for i in all_ids)
        ),
    )
