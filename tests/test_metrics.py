import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsieve.curation import update_total_scores
from pairsieve.data import Label
from pairsieve import metrics
from pairsieve.errors import MissingTruth
from pairsieve.metrics import (
    export_distribution,
    f1_at_threshold,
    noise_composition,
    recall_at_k,
    select_threshold,
    write_distribution,
)


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_recall_identity():
    rng = np.random.default_rng(0)
    q = unit_rows(rng, 20, 8)
    res = recall_at_k(q, q, np.arange(20), ks=(1, 5, 10))
    assert res[1] == 1.0


def test_recall_vacuous_k():
    rng = np.random.default_rng(1)
    q = unit_rows(rng, 1, 4)
    keys = unit_rows(rng, 3, 4)
    res = recall_at_k(q, keys, [2], ks=(5,))
    assert res[5] == 1.0


def test_recall_missing_truth():
    rng = np.random.default_rng(2)
    q = unit_rows(rng, 2, 4)
    with pytest.raises(MissingTruth):
        recall_at_k(q, q, [0], ks=(1,))
    with pytest.raises(MissingTruth):
        recall_at_k(q, q, [0, 5], ks=(1,))


def _brute_force_recalls(queries, keys, truth, ks):
    # Oracle: explicit per-query ranking loop with the same tie rule.
    hits = {k: 0 for k in ks}
    for i, t in enumerate(truth):
        scores = [float(np.dot(queries[i], keys[j])) for j in range(keys.shape[0])]
        order = sorted(range(keys.shape[0]), key=lambda j: (-scores[j], j))
        rank = order.index(t)
        for k in ks:
            hits[k] += rank < k
    return {k: hits[k] / len(truth) for k in ks}


def test_recall_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    queries = unit_rows(rng, 50, 6)
    keys = unit_rows(rng, 50, 6)
    truth = rng.permutation(50)
    res = recall_at_k(queries, keys, truth, ks=(1, 5, 10))
    oracle = _brute_force_recalls(queries, keys, truth, (1, 5, 10))
    assert res == oracle


def test_recall_monotone_in_k():
    rng = np.random.default_rng(4)
    queries = unit_rows(rng, 30, 5)
    keys = unit_rows(rng, 40, 5)
    truth = rng.integers(0, 40, size=30)
    res = recall_at_k(queries, keys, truth, ks=(1, 5, 10))
    assert res[1] <= res[5] <= res[10] <= 1.0


def test_recall_tie_break_ascending_key():
    queries = np.array([[1.0, 0.0]])
    keys = np.array([[1.0, 0.0], [1.0, 0.0]])  # exact tie
    assert recall_at_k(queries, keys, [0], ks=(1,))[1] == 1.0
    assert recall_at_k(queries, keys, [1], ks=(1,))[1] == 0.0


def _reference_recall(queries, keys, truth, ks):
    """Recall by the dense formula: the whole similarity matrix at once, the tie rule on it."""
    sims = queries @ keys.T
    truth = np.asarray(truth, dtype=np.int64)
    true_scores = sims[np.arange(queries.shape[0]), truth]
    better = (sims > true_scores[:, None]).sum(axis=1)
    equal_before = (
        (sims == true_scores[:, None]) & (np.arange(keys.shape[0])[None, :] < truth[:, None])
    ).sum(axis=1)
    rank = better + equal_before
    return {int(k): float(np.mean(rank < k)) for k in ks}


@given(
    st.integers(4, 40),
    st.integers(0, 10),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_blocked_recall_matches_dense_reference(n, extra_keys, dim, rows_per_block, seed):
    # Small-integer coordinates give exact score ties, within a row and across block edges;
    # a cell budget of a few rows splits every case into several blocks.
    rng = np.random.default_rng(seed)
    queries = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    keys = rng.integers(-2, 3, size=(n + extra_keys, dim)).astype(np.float64)
    truth = rng.permutation(n + extra_keys)[:n]
    ks = (1, 2, 3, 5, 10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "CELL_BUDGET", rows_per_block * (n + extra_keys))
        assert recall_at_k(queries, keys, truth, ks) == _reference_recall(queries, keys, truth, ks)


def test_recall_memory_is_a_block_not_the_matrix():
    # The 3000 x 3000 float64 similarity matrix alone is 72 MB; tracemalloc sees numpy's buffers.
    rng = np.random.default_rng(5)
    queries, keys = unit_rows(rng, 3000, 16), unit_rows(rng, 3000, 16)
    tracemalloc.start()
    try:
        recall_at_k(queries, keys, np.arange(3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72e6 / 4


def test_f1_simple_values():
    # precision = recall = 0.5 -> f1 = 0.5
    true_scores = np.array([1.0, -1.0])
    mism_scores = np.array([1.0, -1.0])
    r = f1_at_threshold(true_scores, mism_scores, 0.0)
    assert (r.precision, r.recall, r.f1) == (0.5, 0.5, 0.5)


def test_f1_perfect_separation():
    r = f1_at_threshold(np.array([0.9, 0.8]), np.array([0.1, 0.2]), 0.5)
    assert r.f1 == 1.0


def test_f1_degenerate_no_predictions():
    r = f1_at_threshold(np.array([0.1]), np.array([0.2]), 0.9)
    assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)


def test_f1_matches_exact_confusion_matrix():
    # Oracle: integer confusion counts and exact rational arithmetic,
    # compared against the float implementation on 50-pair instances.
    rng = np.random.default_rng(5)
    true_scores = rng.uniform(-1, 1, size=50)
    mism_scores = rng.uniform(-1, 1, size=50)
    for theta in (-0.5, 0.0, 0.3):
        tp = sum(1 for s in true_scores if s > theta)
        fp = sum(1 for s in mism_scores if s > theta)
        fn = 50 - tp
        precision = Fraction(tp, tp + fp)
        recall = Fraction(tp, tp + fn)
        f1 = 2 * precision * recall / (precision + recall)
        got = f1_at_threshold(true_scores, mism_scores, theta)
        assert got.precision == tp / (tp + fp)
        assert got.recall == tp / (tp + fn)
        assert got.f1 == pytest.approx(float(f1), abs=1e-15)


@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=30),
    st.lists(st.floats(-1, 1), min_size=1, max_size=30),
    st.floats(-1, 1),
)
@settings(max_examples=60)
def test_f1_is_harmonic_mean(true_s, mism_s, theta):
    r = f1_at_threshold(np.array(true_s), np.array(mism_s), theta)
    if r.precision + r.recall > 0:
        assert r.f1 == pytest.approx(
            2 * r.precision * r.recall / (r.precision + r.recall), abs=1e-12
        )
    assert r.f1 <= min(2 * r.precision, 2 * r.recall) + 1e-12


def test_select_threshold_maximizes_f1():
    true_scores = np.array([0.9, 0.7, 0.4])
    mism_scores = np.array([0.5, 0.2, 0.1])
    theta = select_threshold(true_scores, mism_scores)
    best = f1_at_threshold(true_scores, mism_scores, theta).f1
    for t in np.linspace(-1, 1, 201):
        assert f1_at_threshold(true_scores, mism_scores, t).f1 <= best + 1e-12


def _select_threshold_by_loop(true_scores, mismatch_scores):
    """Reference: score every candidate with ``f1_at_threshold``; the first best wins."""
    pooled = np.unique(np.concatenate([true_scores, mismatch_scores]))
    candidates = [pooled[0] - 1.0, *((pooled[:-1] + pooled[1:]) / 2.0)]
    best_t, best_f1 = candidates[0], -1.0
    for t in candidates:
        r = f1_at_threshold(true_scores, mismatch_scores, t)
        if r.f1 > best_f1:
            best_t, best_f1 = t, r.f1
    return float(best_t)


score_lists = st.lists(
    st.one_of(st.floats(-1, 1), st.integers(-4, 4).map(lambda k: k / 4)), min_size=1, max_size=40
)


@given(score_lists, score_lists)
@settings(max_examples=200)
def test_select_threshold_matches_per_candidate_loop(true_s, mism_s):
    # Quantised scores make ties within and across the two populations.
    got = select_threshold(np.array(true_s), np.array(mism_s))
    want = _select_threshold_by_loop(np.array(true_s), np.array(mism_s))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_select_threshold_rejects_an_empty_population():
    with pytest.raises(ValueError):
        select_threshold(np.array([0.5]), np.array([]))


def test_noise_composition_exact():
    codes = np.array([Label.GOOD, Label.CLEAN, Label.NOISY, Label.GOOD], dtype=np.int8)
    comp = noise_composition(codes)
    assert comp == {"good": 0.5, "clean": 0.25, "noisy": 0.25}
    assert sum(comp.values()) == pytest.approx(1.0, abs=1e-12)
    only_good = noise_composition(codes[[0, 3]])
    assert only_good == {"good": 1.0, "clean": 0.0, "noisy": 0.0}
    assert noise_composition(codes[:0]) == {"good": 0.0, "clean": 0.0, "noisy": 0.0}


def test_export_distribution_epoch_one_totals_equal_scores(tmp_path):
    totals = np.zeros(4)
    scored = np.array([0, 1, 3])
    scores = np.array([0.4, -0.2, 0.9])
    update_total_scores(totals, scored, scores, alpha=0.9)  # first epoch: total == score
    ids = np.array([5, 6, 8, 9])
    labels = np.array([Label.GOOD, Label.NOISY, Label.GOOD, Label.CLEAN], dtype=np.int8)
    rows = export_distribution(ids[scored], scores, totals[scored], labels[scored])
    assert rows == [(5, 0.4, 0.4, "good"), (6, -0.2, -0.2, "noisy"), (9, 0.9, 0.9, "clean")]
    path = tmp_path / "dist.csv"
    write_distribution(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines == ["id,s_epoch,c_total,label", "5,0.4,0.4,good", "6,-0.2,-0.2,noisy", "9,0.9,0.9,clean"]
