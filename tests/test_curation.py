import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsieve.curation import (
    ScoreLedger,
    StopRule,
    check_stop,
    filtering_ratio_report,
    rank_and_filter,
    score_pairs,
    update_total_scores,
    write_ledger_dump,
)
from pairsieve.data import GenConfig, Label, generate_dataset
from pairsieve.encoder import EncoderPairState, init_params
from pairsieve.errors import EmptySet, LedgerMiss, NonFiniteLoss


def _shadow(seed=0, d_a=8, d_b=6, d_e=4):
    return EncoderPairState(
        key_encoder=init_params(seed * 13 + 1, d_a, 5, d_e),
        query_encoder=init_params(seed * 13 + 2, d_b, 5, d_e),
    )


def _toy_dataset(n=40, seed=3):
    return generate_dataset(GenConfig(n_pairs=n, d_a=8, d_b=6, latent_dim=4, seq_len=4, token_coords=2, seed=seed))


def test_score_pairs_deterministic_and_empty():
    ds = _toy_dataset()
    shadow = _shadow()
    ids = [int(i) for i in ds.ids[:10]]
    once = score_pairs(shadow, ds, ids)
    twice = score_pairs(shadow, ds, ids)
    assert once == twice
    assert score_pairs(shadow, ds, []) == {}


def test_update_total_scores_direct():
    ledger = ScoreLedger(totals={1: 1.0})
    update_total_scores(ledger, {1: 0.5}, alpha=0.9)
    assert ledger.totals[1] == pytest.approx(1.4)
    assert ledger.last[1] == 0.5


def test_update_total_scores_memoryless_at_alpha_zero():
    ledger = ScoreLedger(totals={1: 123.0})
    update_total_scores(ledger, {1: 0.25}, alpha=0.0)
    assert ledger.totals[1] == 0.25


def test_update_total_scores_unknown_id():
    ledger = ScoreLedger(totals={1: 0.0})
    with pytest.raises(LedgerMiss):
        update_total_scores(ledger, {2: 0.5}, alpha=0.9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_update_total_scores_rejects_non_finite(bad):
    # A NaN total would make rank_and_filter's order depend on input order,
    # so the whole update is refused before any entry changes.
    ledger = ScoreLedger(totals={1: 0.5, 2: 0.25})
    with pytest.raises(NonFiniteLoss):
        update_total_scores(ledger, {1: 0.1, 2: bad}, alpha=0.9)
    assert ledger.totals == {1: 0.5, 2: 0.25}
    assert ledger.last == {}


@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.sampled_from([0.0, 0.5, 0.9]),
)
def test_smoothing_matches_closed_form(scores, alpha):
    # Oracle: the smoothed total is the geometric sum of past scores.
    ledger = ScoreLedger.fresh([0])
    for s in scores:
        update_total_scores(ledger, {0: s}, alpha)
    k = len(scores)
    expected = sum(alpha ** (k - 1 - j) * s for j, s in enumerate(scores))
    assert abs(ledger.totals[0] - expected) <= 1e-12


def test_rank_and_filter_top_scores():
    ledger = ScoreLedger(totals={i: float(i) for i in range(10)})
    kept = rank_and_filter(ledger, list(range(10)), keep_fraction=0.7)
    assert kept == [9, 8, 7, 6, 5, 4, 3]


def test_rank_and_filter_identity_at_one():
    ledger = ScoreLedger(totals={i: float(-i) for i in range(5)})
    kept = rank_and_filter(ledger, list(range(5)), keep_fraction=1.0)
    assert sorted(kept) == list(range(5))


def test_rank_and_filter_tie_break_ascending_id():
    ledger = ScoreLedger(totals={i: 1.0 for i in range(6)})
    kept = rank_and_filter(ledger, list(range(6)), keep_fraction=0.5)
    assert kept == [0, 1, 2]


def test_rank_and_filter_empty():
    with pytest.raises(EmptySet):
        rank_and_filter(ScoreLedger(totals={}), [], keep_fraction=0.9)


def test_geometric_shrink_nine_rounds():
    # ceil rounding applied nine times from 300 at keep fraction 0.9.
    sizes = [300]
    ledger = ScoreLedger(totals={i: float(i) for i in range(300)})
    retained = list(range(300))
    for _ in range(9):
        retained = rank_and_filter(ledger, retained, 0.9)
        sizes.append(len(retained))
    assert sizes == [300, 270, 243, 219, 198, 179, 162, 146, 132, 119]
    assert 114 <= sizes[-1] <= 120


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50, unique=True), st.randoms())
@settings(max_examples=50)
def test_monotone_shrink(ids, rnd):
    ledger = ScoreLedger(totals={i: float(i % 7) for i in ids})
    kept = rank_and_filter(ledger, ids, keep_fraction=0.8)
    assert len(kept) <= len(ids)
    assert set(kept) <= set(ids)
    again = rank_and_filter(ledger, ids, keep_fraction=0.8)
    assert kept == again  # deterministic, ties included
    # A total order: input order does not matter, and ties go to the smaller id.
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    assert rank_and_filter(ledger, shuffled, keep_fraction=0.8) == kept
    assert kept == sorted(ids, key=lambda i: (-ledger.totals[i], i))[: math.ceil(0.8 * len(ids))]


def test_check_stop_cases():
    rule = StopRule(min_improvement=0.01, patience=2)
    assert check_stop([0.1, 0.3, 0.5], rule) is False
    assert check_stop([0.45, 0.452, 0.451], rule) is True
    assert check_stop([0.45], rule) is False  # too little history


def test_check_stop_plateau_detection_delay():
    # A plateau after steady growth triggers within patience epochs.
    rule = StopRule(min_improvement=0.005, patience=2)
    history = [0.2, 0.35, 0.5, 0.501, 0.5005, 0.5008]
    fired_at = None
    for k in range(1, len(history) + 1):
        if check_stop(history[:k], rule):
            fired_at = k
            break
    assert fired_at == 5  # plateau starts at epoch 4, fired by epoch 5


def test_filtering_ratio_report_boundaries():
    labels = {0: Label.GOOD, 1: Label.CLEAN, 2: Label.NOISY, 3: Label.NOISY}
    full = filtering_ratio_report([0, 1, 2, 3], [0, 1, 2, 3], labels)
    assert full.good_retention == 1.0 and full.noisy_retention == 1.0
    only_gc = filtering_ratio_report([0, 1, 2, 3], [0, 1], labels)
    assert only_gc.good_retention == 1.0 and only_gc.noisy_retention == 0.0
    vacuous = filtering_ratio_report([0, 1], [0], labels)
    assert np.isnan(vacuous.noisy_retention)


def test_ledger_dump_format(tmp_path):
    ledger = ScoreLedger.fresh([0, 1, 2])
    update_total_scores(ledger, {0: 0.5, 1: 0.2, 2: -0.1}, alpha=0.9)
    labels = {0: Label.GOOD, 1: Label.CLEAN, 2: Label.NOISY}
    path = tmp_path / "ledger.csv"
    write_ledger_dump(path, ledger, [0, 1, 2], [0, 1], labels)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,epoch_score,total_score,retained,oracle_label"
    assert len(lines) == 4
    assert lines[3].startswith("2,") and lines[3].endswith(",0,noisy")
