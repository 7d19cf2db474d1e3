import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsieve.curation import (
    StopRule,
    check_stop,
    filtering_ratio_report,
    rank_and_filter,
    score_pairs,
    update_total_scores,
    write_ledger_dump,
)
from pairsieve.data import GenConfig, Label, generate_dataset
from pairsieve.encoder import EncoderPairState, encode_batch, init_params
from pairsieve.errors import EmptySet, LedgerMiss, NonFiniteLoss


def _shadow(seed=0, d_a=8, d_b=6, d_e=4):
    return EncoderPairState(
        key_encoder=init_params(seed * 13 + 1, d_a, 5, d_e),
        query_encoder=init_params(seed * 13 + 2, d_b, 5, d_e),
    )


def _toy_dataset(n=40, seed=3):
    return generate_dataset(GenConfig(n_pairs=n, d_a=8, d_b=6, latent_dim=4, seq_len=4, token_coords=2, seed=seed))


def _totals(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def test_score_pairs_deterministic_and_empty():
    ds = _toy_dataset()
    shadow = _shadow()
    rows = np.array([7, 0, 3, 12, 5])
    keys, _ = encode_batch(shadow.key_encoder, ds.x_a)
    once = score_pairs(keys[rows], shadow.query_encoder, ds.x_b[rows])
    twice = score_pairs(keys[rows], shadow.query_encoder, ds.x_b[rows])
    assert once.shape == (5,) and once.tobytes() == twice.tobytes()
    assert score_pairs(keys[rows[:0]], shadow.query_encoder, ds.x_b[rows[:0]]).shape == (0,)


def test_update_total_scores_direct():
    totals = _totals([0.0, 1.0])
    update_total_scores(totals, [1], [0.5], alpha=0.9)
    assert totals[0] == 0.0
    assert totals[1] == pytest.approx(1.4)


def test_update_total_scores_memoryless_at_alpha_zero():
    totals = _totals([0.0, 123.0])
    update_total_scores(totals, [1], [0.25], alpha=0.0)
    assert totals[1] == 0.25


def test_update_total_scores_unknown_id():
    # Rows outside [0, n) are refused before any entry changes, negative ones too, which indexing would wrap.
    totals = _totals([0.0, 0.0, 0.0])
    for row in (-1, 3, 10**6):
        with pytest.raises(LedgerMiss):
            update_total_scores(totals, [0, row], [0.5, 0.5], alpha=0.9)
        assert totals.tolist() == [0.0, 0.0, 0.0], row


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_update_total_scores_rejects_non_finite(bad):
    # A NaN total would make rank_and_filter's order depend on input order,
    # so the whole update is refused before any entry changes.
    totals = _totals([0.0, 0.5, 0.25])
    with pytest.raises(NonFiniteLoss):
        update_total_scores(totals, [1, 2], [0.1, bad], alpha=0.9)
    assert totals.tolist() == [0.0, 0.5, 0.25]


@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.sampled_from([0.0, 0.5, 0.9]),
)
def test_smoothing_matches_closed_form(scores, alpha):
    # Oracle: the smoothed total is the geometric sum of past scores.
    totals = np.zeros(1)
    for s in scores:
        update_total_scores(totals, [0], [s], alpha)
    k = len(scores)
    expected = sum(alpha ** (k - 1 - j) * s for j, s in enumerate(scores))
    assert abs(totals[0] - expected) <= 1e-12


def test_rank_and_filter_top_scores():
    kept = rank_and_filter(_totals(range(10)), np.arange(10), keep_fraction=0.7)
    assert kept.tolist() == [9, 8, 7, 6, 5, 4, 3]


def test_rank_and_filter_identity_at_one():
    kept = rank_and_filter(_totals([-i for i in range(5)]), np.arange(5), keep_fraction=1.0)
    assert sorted(kept.tolist()) == list(range(5))


def test_rank_and_filter_tie_break_ascending_id():
    kept = rank_and_filter(_totals([1.0] * 6), np.arange(6), keep_fraction=0.5)
    assert kept.tolist() == [0, 1, 2]


def test_rank_and_filter_empty():
    with pytest.raises(EmptySet):
        rank_and_filter(np.zeros(0), np.arange(0), keep_fraction=0.9)


def test_geometric_shrink_nine_rounds():
    # ceil rounding applied nine times from 300 at keep fraction 0.9.
    sizes = [300]
    totals = _totals(range(300))
    retained = np.arange(300)
    for _ in range(9):
        retained = rank_and_filter(totals, retained, 0.9)
        sizes.append(len(retained))
    assert sizes == [300, 270, 243, 219, 198, 179, 162, 146, 132, 119]
    assert 114 <= sizes[-1] <= 120


@given(
    st.dictionaries(
        st.integers(0, 1000), st.sampled_from([0.0, -0.0, 0.5, -0.5]) | st.floats(-2, 2), min_size=1, max_size=50
    ),
    st.randoms(),
)
@settings(max_examples=50)
def test_monotone_shrink(total_of, rnd):
    # Sparse, unsorted rows of 1001 tracked rows; totals have ties, and +0.0 beside -0.0.
    ids = list(total_of)
    column = np.zeros(1001)
    column[ids] = list(total_of.values())
    totals = column.tolist()
    kept = rank_and_filter(column, ids, keep_fraction=0.8).tolist()
    assert len(kept) <= len(ids)
    assert set(kept) <= set(ids)
    again = rank_and_filter(column, ids, keep_fraction=0.8).tolist()
    assert kept == again  # deterministic, ties included
    # A total order: input order does not matter, and ties go to the smaller id.
    shuffled = list(ids)
    rnd.shuffle(shuffled)
    assert rank_and_filter(column, shuffled, keep_fraction=0.8).tolist() == kept
    assert kept == sorted(ids, key=lambda i: (-totals[i], i))[: math.ceil(0.8 * len(ids))]


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
    codes = np.array([Label.GOOD, Label.CLEAN, Label.NOISY, Label.NOISY], dtype=np.int8)
    # The run passes Label objects; codes give the same report.
    for labels in (codes, np.array(list(Label), dtype=object)[codes]):
        full = filtering_ratio_report(np.arange(4), np.arange(4), labels)
        assert full.good_retention == 1.0 and full.noisy_retention == 1.0
        only_gc = filtering_ratio_report(np.arange(4), np.array([1, 0]), labels)
        assert only_gc.good_retention == 1.0 and only_gc.noisy_retention == 0.0
        half = filtering_ratio_report(np.array([3, 1, 2, 0]), np.array([2, 1]), labels)
        assert half.good_retention == 0.5 and half.noisy_retention == 0.5
        vacuous = filtering_ratio_report(np.array([0, 1]), np.array([0]), labels)
        assert np.isnan(vacuous.noisy_retention)


def test_ledger_dump_format(tmp_path):
    scores = np.array([0.5, 0.2, -0.1])
    totals = np.zeros(3)
    update_total_scores(totals, [0, 1, 2], scores, alpha=0.9)
    labels = np.array([Label.GOOD, Label.CLEAN, Label.NOISY], dtype=np.int8)
    path = tmp_path / "ledger.csv"
    write_ledger_dump(path, np.array([4, 10, 11]), scores, totals, np.array([True, True, False]), labels)
    lines = path.read_text().strip().splitlines()
    assert lines == [
        "id,epoch_score,total_score,retained,oracle_label",
        "4,0.5,0.5,1,good",
        "10,0.2,0.2,1,clean",
        "11,-0.1,-0.1,0,noisy",
    ]


def _ledger_dump_by_csv_writer(ids, scores, totals, retained, labels):
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["id", "epoch_score", "total_score", "retained", "oracle_label"])
    for rid, score, total, kept, lab in zip(ids, scores, totals, retained, labels):
        w.writerow([int(rid), repr(float(score)), repr(float(total)), int(kept), Label(int(lab)).tag])
    return out.getvalue().encode("utf-8")


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300]
_LEDGER_ROWS = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS),
        st.floats(allow_subnormal=True) | st.sampled_from(_SPECIAL_FLOATS),
        st.booleans(),
        st.sampled_from(list(Label)),
    ),
    max_size=30,
)


@given(_LEDGER_ROWS)
@example([(i, f, -f, i % 2 == 0, Label(i % 3)) for i, f in enumerate(_SPECIAL_FLOATS)])
@settings(max_examples=150, deadline=None)
def test_ledger_dump_bytes_equal_csv_writer(tmp_path_factory, rows):
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    scores = np.array([r[1] for r in rows], dtype=np.float64)
    totals = np.array([r[2] for r in rows], dtype=np.float64)
    retained = np.array([r[3] for r in rows], dtype=bool)
    labels = np.array([r[4] for r in rows], dtype=np.int8)
    path = tmp_path_factory.mktemp("dump") / "ledger.csv"
    write_ledger_dump(path, ids, scores, totals, retained, labels)
    assert path.read_bytes() == _ledger_dump_by_csv_writer(ids, scores, totals, retained, labels)
