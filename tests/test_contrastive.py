import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsieve import contrastive
from pairsieve.contrastive import (
    ContrastiveBatch,
    MemoryQueue,
    PairBatch,
    contrastive_loss,
    training_step,
)
from pairsieve.encoder import EncoderPairState, encode_batch, encode_backward, init_params
from pairsieve.errors import DimMismatch, NoNegatives
from pairsieve.numerics import finite_diff_check
from pairsieve.rng import substream


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_queue_fifo_eviction():
    q = MemoryQueue(2, 3)
    a, b, c = np.eye(3)
    q.push(np.stack([a, b, c]), [1, 2, 3])
    emb, ids = q.snapshot()
    np.testing.assert_array_equal(ids, [2, 3])
    np.testing.assert_array_equal(emb, np.stack([b, c]))


def test_queue_push_empty_noop():
    q = MemoryQueue(4, 3)
    q.push(np.empty((0, 3)), [])
    assert len(q) == 0


def test_queue_dim_mismatch():
    q = MemoryQueue(4, 3)
    with pytest.raises(DimMismatch):
        q.push(np.ones((1, 2)), [0])


def test_queue_large_capacity_order_preserved():
    # Capacity mirrors a production-size queue; pushes stay well below it.
    q = MemoryQueue(50000, 2)
    rng = substream(0, "init", 0)
    keys = unit_rows(rng, 10000, 2)
    for start in range(0, 10000, 500):
        q.push(keys[start : start + 500], np.arange(start, start + 500))
    assert len(q) == 10000
    emb, ids = q.snapshot()
    np.testing.assert_array_equal(ids, np.arange(10000))
    np.testing.assert_array_equal(emb, keys)


@given(
    st.integers(1, 6),
    st.lists(st.lists(st.integers(0, 30), max_size=9), min_size=1, max_size=12),
)
@settings(max_examples=60)
def test_queue_keeps_last_capacity_entries(capacity, pushes):
    # Pushes of any size, larger than the capacity too, match a bounded deque.
    q = MemoryQueue(capacity, 2)
    ref = deque(maxlen=capacity)
    rng = np.random.default_rng(0)
    for ids in pushes:
        vecs = unit_rows(rng, len(ids), 2)
        q.push(vecs, ids)
        ref.extend(zip(ids, vecs))
        emb, got = q.snapshot()
        assert len(q) == len(ref)
        np.testing.assert_array_equal(got, np.array([i for i, _ in ref], dtype=np.int64))
        np.testing.assert_array_equal(emb, np.array([v for _, v in ref]).reshape(-1, 2))


def test_queue_snapshot_is_frozen():
    q = MemoryQueue(3, 2)
    q.push(np.eye(2), [0, 1])
    emb, ids = q.snapshot()
    q.push(np.ones((2, 2)), [2, 3])
    np.testing.assert_array_equal(emb, np.eye(2))
    np.testing.assert_array_equal(ids, [0, 1])
    with pytest.raises(ValueError):
        emb[0, 0] = 5.0
    with pytest.raises(ValueError):
        ids[0] = 7


def test_loss_uniform_two_way():
    # One negative, query orthogonal to both positive and negative.
    q = MemoryQueue(4, 3)
    q.push(np.array([[0.0, 1.0, 0.0]]), [99])
    batch = ContrastiveBatch(
        queries=np.array([[0.0, 0.0, 1.0]]),
        positives=np.array([[1.0, 0.0, 0.0]]),
        ids=np.array([0]),
    )
    loss, _ = contrastive_loss(batch, q, tau=0.07)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_loss_saturated_query_equals_positive():
    tau = 0.07
    n_neg = 5
    q = MemoryQueue(8, 4)
    negs = np.zeros((n_neg, 4))
    negs[:, 1] = 1.0
    q.push(negs, np.arange(10, 15))
    e = np.zeros((1, 4))
    e[0, 0] = 1.0
    batch = ContrastiveBatch(queries=e, positives=e.copy(), ids=np.array([0]))
    loss, _ = contrastive_loss(batch, q, tau)
    expected = -math.log(math.exp(1 / tau) / (math.exp(1 / tau) + n_neg * math.exp(0.0)))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_loss_no_negatives():
    q = MemoryQueue(4, 3)
    batch = ContrastiveBatch(
        queries=np.array([[1.0, 0.0, 0.0]]),
        positives=np.array([[1.0, 0.0, 0.0]]),
        ids=np.array([0]),
    )
    with pytest.raises(NoNegatives):
        contrastive_loss(batch, q, tau=0.07)


def test_loss_empty_queue_uses_in_batch_negatives():
    rng = substream(1, "init", 1)
    q = MemoryQueue(4, 3)
    batch = ContrastiveBatch(
        queries=unit_rows(rng, 3, 3), positives=unit_rows(rng, 3, 3), ids=np.arange(3)
    )
    loss, grads = contrastive_loss(batch, q, tau=0.07)
    assert np.isfinite(loss) and loss > 0
    assert grads.shape == (3, 3)


def test_loss_positive_lower_bound():
    rng = substream(2, "init", 2)
    q = MemoryQueue(16, 4)
    q.push(unit_rows(rng, 16, 4), np.arange(100, 116))
    batch = ContrastiveBatch(
        queries=unit_rows(rng, 5, 4), positives=unit_rows(rng, 5, 4), ids=np.arange(5)
    )
    loss, _ = contrastive_loss(batch, q, tau=0.07)
    assert loss > 0


def test_loss_permutation_invariant_over_queue_order():
    rng = substream(3, "init", 3)
    negs = unit_rows(rng, 12, 4)
    ids = np.arange(200, 212)
    batch = ContrastiveBatch(
        queries=unit_rows(rng, 4, 4), positives=unit_rows(rng, 4, 4), ids=np.arange(4)
    )
    q1 = MemoryQueue(12, 4)
    q1.push(negs, ids)
    loss1, _ = contrastive_loss(batch, q1, tau=0.07)
    perm = rng.permutation(12)
    q2 = MemoryQueue(12, 4)
    q2.push(negs[perm], ids[perm])
    loss2, _ = contrastive_loss(batch, q2, tau=0.07)
    assert abs(loss1 - loss2) <= 1e-12


def test_self_exclusion():
    rng = substream(4, "init", 4)
    negs = unit_rows(rng, 5, 4)
    batch = ContrastiveBatch(
        queries=unit_rows(rng, 1, 4), positives=unit_rows(rng, 1, 4), ids=np.array([7])
    )
    # A queue entry carrying the query's own id must behave as if absent.
    q_with, q_without = MemoryQueue(8, 4), MemoryQueue(8, 4)
    q_with.push(negs, np.array([7, 30, 31, 32, 33]))
    q_without.push(negs[1:], np.array([30, 31, 32, 33]))
    loss_with, g_with = contrastive_loss(batch, q_with, tau=0.07)
    loss_without, g_without = contrastive_loss(batch, q_without, tau=0.07)
    assert loss_with == pytest.approx(loss_without, abs=1e-12)
    np.testing.assert_allclose(g_with, g_without, atol=1e-15)


def _reference_loss(batch, queue, tau):
    """The loss by its plain formula: row-max shift and a dense same-id mask."""
    negs, neg_ids = queue.snapshot()
    in_batch = negs.shape[0] == 0
    if in_batch:
        negs, neg_ids = batch.positives, batch.ids
    n = batch.queries.shape[0]
    pos_logit = np.sum(batch.queries * batch.positives, axis=1) / tau
    neg_logits = (batch.queries @ negs.T) / tau
    exclude = neg_ids[None, :] == batch.ids[:, None]
    if in_batch:
        exclude = exclude | np.eye(n, dtype=bool)
    neg_logits = np.where(exclude, -np.inf, neg_logits)
    row_max = np.maximum(pos_logit, neg_logits.max(axis=1))
    pos_exp = np.exp(pos_logit - row_max)
    neg_exp = np.exp(neg_logits - row_max[:, None])
    total = pos_exp + neg_exp.sum(axis=1)
    loss = float(np.mean(-(pos_logit - row_max) + np.log(total)))
    p_pos = pos_exp / total
    p_neg = neg_exp / total[:, None]
    return loss, ((p_pos - 1.0)[:, None] * batch.positives + p_neg @ negs) / (tau * n)


def _assert_matches_reference(batch, queue, tau):
    loss, grads = contrastive_loss(batch, queue, tau)
    ref_loss, ref_grads = _reference_loss(batch, queue, tau)
    assert np.isfinite(loss) and np.all(np.isfinite(grads))
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-12, atol=1e-12)


@given(
    st.lists(st.integers(0, 15), min_size=1, max_size=12),
    st.lists(st.integers(0, 15), max_size=40),
    st.floats(0.01, 1.0),
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
)
@example([0, 1, 2, 3, 4], [4, 9, 0], 0.1, 3, 2)  # blocks of rows 0-1 and 2-4, an exclusion in each
@example([3, 3, 5, 6, 7, 8, 9], [], 0.5, 4, 3)  # in-batch negatives, blocks of rows 0-2 and 3-6
@settings(max_examples=150, deadline=None)
def test_loss_matches_reference_formula(batch_ids, queue_ids, tau, seed, block_rows):
    # Ids from a small range give batch duplicates and batch/queue collisions;
    # an empty queue gives the in-batch warm start. Some rows are not unit.
    # A cell budget of block_rows rows of logits scores most batches in several
    # row blocks, with exclusions in more than one and a lone last row joined
    # to the block before it.
    if not queue_ids and len(batch_ids) == 1:
        queue_ids = [16]  # a batch of one on an empty queue raises NoNegatives
    n, m, d = len(batch_ids), len(queue_ids), 4
    rng = np.random.default_rng(seed)

    def rows(k):
        x = unit_rows(rng, k, d)
        scaled = rng.random(k) < 0.3
        x[scaled] *= rng.uniform(0.5, 3.0, (int(scaled.sum()), 1))
        return x

    queue = MemoryQueue(max(m, 1), d)
    queue.push(rows(m), queue_ids)
    batch = ContrastiveBatch(queries=rows(n), positives=rows(n), ids=np.array(batch_ids))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contrastive, "CELL_BUDGET", block_rows * (m or n))
        _assert_matches_reference(batch, queue, tau)


def test_loss_where_a_negative_outranks_its_positive_past_exp_range():
    # Row 1: a 3x query along a 3x negative, its positive orthogonal, tau 0.01, so a
    # negative logit exceeds the positive one by 900 and exp overflows unless the row
    # is shifted by its maximum. Row 0: every queue entry carries its id, so it has
    # no negatives at all and its loss term and gradient are 0.
    e = np.eye(4)
    queue = MemoryQueue(4, 4)
    queue.push(np.stack([3.0 * e[0], e[1], 3.0 * e[0]]), [5, 5, 5])
    batch = ContrastiveBatch(
        queries=np.stack([e[2], 3.0 * e[0]]), positives=np.stack([e[3], e[1]]), ids=np.array([5, 9])
    )
    _assert_matches_reference(batch, queue, 0.01)
    loss, grads = contrastive_loss(batch, queue, 0.01)
    assert loss == pytest.approx((900.0 + math.log(2.0 + math.exp(-300.0))) / 2, rel=1e-12)
    np.testing.assert_array_equal(grads[0], 0.0)


def test_gradient_matches_finite_differences():
    p = init_params(21, 6, 5, 4)
    rng = substream(21, "init", 5)
    x = rng.standard_normal((4, 6))
    pos = unit_rows(rng, 4, 4)
    ids = np.arange(4)
    q = MemoryQueue(8, 4)
    q.push(unit_rows(rng, 8, 4), np.arange(50, 58))

    def loss_fn(arrays):
        from pairsieve.encoder import EncoderParams

        enc = EncoderParams(
            np.asarray(arrays[0]).reshape(6, 5),
            np.asarray(arrays[1]),
            np.asarray(arrays[2]).reshape(5, 4),
            np.asarray(arrays[3]),
        )
        emb, cache = encode_batch(enc, x)
        batch = ContrastiveBatch(queries=emb, positives=pos, ids=ids)
        loss, dq = contrastive_loss(batch, q, tau=0.07)
        return loss, encode_backward(enc, cache, dq).arrays()

    report = finite_diff_check(loss_fn, p.arrays())
    assert report.max_rel_err <= 1e-4


def _loss_on(queue, batch):
    loss, grads = contrastive_loss(batch, queue, tau=0.07)
    return np.float64(loss).tobytes() + grads.tobytes()


def test_loss_is_unchanged_by_what_earlier_calls_left_in_the_scratch(monkeypatch):
    # Calls of every kind on one queue, each against the same call on a fresh queue with the same
    # entries: the in-batch fallback, then with more rows than the capacity (the storage grows), a
    # partly filled queue, a full one, a smaller batch, and an overflow that takes the fallback.
    # Then again with a budget of 4 cells, which scores each call in 2-row blocks (3 rows where a
    # lone row joins): big's 7 rows in three blocks, and far's overflow and an exclusion in its
    # second block, so both blocks are redone. Each call must also match the reference formula.
    for cell_budget in (contrastive.CELL_BUDGET, 4):
        monkeypatch.setattr(contrastive, "CELL_BUDGET", cell_budget)
        _check_calls_against_fresh_queues()


def _check_calls_against_fresh_queues():
    rng = substream(9, "init", 9)
    big = ContrastiveBatch(queries=unit_rows(rng, 7, 4), positives=unit_rows(rng, 7, 4), ids=np.arange(7))
    small = ContrastiveBatch(queries=unit_rows(rng, 2, 4), positives=unit_rows(rng, 2, 4), ids=np.arange(2))
    far = ContrastiveBatch(
        queries=np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0], [1.0, 0, 0, 0], [0, 1.0, 0, 0]]),
        positives=np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0], [-1.0, 0, 0, 0], [0, -1.0, 0, 0]]),
        ids=np.array([0, 1, 2, 104]),
    )
    negs = unit_rows(rng, 5, 4)
    negs[-1] = [90.0, 90.0, 0, 0]  # id 104: exp overflows at tau 0.07 in far's row 2; row 3 excludes it
    q = MemoryQueue(5, 4)
    steps = [(small, 0), (big, 0), (small, 3), (big, 4), (small, 4), (far, 5), (big, 5)]
    for batch, filled in steps:
        while len(q) < filled:
            q.push(negs[len(q)][None], [100 + len(q)])
        fresh = MemoryQueue(5, 4)
        if filled:
            fresh.push(negs[:filled], np.arange(100, 100 + filled))
        assert _loss_on(q, batch) == _loss_on(fresh, batch)
        _assert_matches_reference(batch, q, 0.07)


def test_loss_writes_its_logits_into_the_queues_scratch():
    # A call after the first allocates no (n, m) logits matrix. Traced peaks of the second call at
    # n = 64, m = 1024, d = 8: 0.62 MB with a fresh logits matrix per call (its 0.52 MB included),
    # 0.10 MB with the scratch. The bound sits halfway between the two.
    assert _traced_call_peak(64, 1024, 8, warm=True) < 0.36e6
    # The scratch holds one row block of logits (about 1 MB), not the (n, m) matrix: traced peaks
    # of a first call at n = 180, m = 4096, d = 16 are 1.77 MB, and 6.58 MB with the whole 5.9 MB
    # matrix in the scratch. The bound sits between the two.
    assert _traced_call_peak(180, 4096, 16, warm=False) < 3.5e6


def _traced_call_peak(n, m, d, warm):
    """Traced peak of one call on a full queue, after one untraced call if ``warm``."""
    rng = substream(10, "init", 10)
    q = MemoryQueue(m, d)
    q.push(unit_rows(rng, m, d), np.arange(1000, 1000 + m))
    batch = ContrastiveBatch(queries=unit_rows(rng, n, d), positives=unit_rows(rng, n, d), ids=np.arange(n))
    if warm:
        contrastive_loss(batch, q, tau=0.07)
    tracemalloc.start()
    try:
        contrastive_loss(batch, q, tau=0.07)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _toy_state(seed=0, d_a=8, d_b=6, d_e=4):
    return EncoderPairState(
        key_encoder=init_params(seed * 31 + 1, d_a, 5, d_e),
        query_encoder=init_params(seed * 31 + 2, d_b, 5, d_e),
    )


def test_training_step_lr_zero_only_grows_queue():
    state = _toy_state()
    rng = substream(5, "init", 6)
    batch = PairBatch(
        ids=np.arange(3), x_a=rng.standard_normal((3, 8)), x_b=rng.standard_normal((3, 6))
    )
    before = [a.copy() for a in state.query_encoder.arrays()]
    queue = MemoryQueue(16, 4)
    keys, _ = encode_batch(state.key_encoder, batch.x_a)
    training_step(
        state, queue, batch, tau=0.07, lr=0.0, weight_decay=0.0, key_lookup=lambda ids: keys[ids]
    )
    for a, b in zip(state.query_encoder.arrays(), before):
        np.testing.assert_array_equal(a, b)
    assert len(queue) == 3


def test_training_step_push_after_loss():
    # First step on an empty queue must not use the batch's own keys as
    # queue negatives (they are pushed only afterwards).
    state = _toy_state(1)
    rng = substream(6, "init", 7)
    batch = PairBatch(
        ids=np.arange(2), x_a=rng.standard_normal((2, 8)), x_b=rng.standard_normal((2, 6))
    )
    queue = MemoryQueue(16, 4)
    keys, _ = encode_batch(state.key_encoder, batch.x_a)
    queries, _ = encode_batch(state.query_encoder, batch.x_b)
    expected, _ = contrastive_loss(
        ContrastiveBatch(queries=queries, positives=keys, ids=batch.ids),
        MemoryQueue(16, 4),
        tau=0.07,
    )
    loss = training_step(
        state, queue, batch, tau=0.07, lr=1e-3, weight_decay=0.0, key_lookup=lambda ids: keys[ids]
    )
    assert loss == pytest.approx(expected, abs=1e-12)
    assert len(queue) == 2


def test_training_convergence_on_clean_toy_set():
    # Loss should fall below half the log-uniform level over a full queue
    # within 200 steps on an easy all-matched set, for most seeds.
    from pairsieve.data import GenConfig, generate_dataset

    wins = 0
    for seed in range(5):
        cfg = GenConfig(n_pairs=64, f_good=1.0, f_clean=0.0, f_noisy=0.0, seed=seed)
        ds = generate_dataset(cfg)
        state = EncoderPairState(
            key_encoder=init_params(seed * 7 + 1, cfg.d_a, 32, 16),
            query_encoder=init_params(seed * 7 + 2, cfg.d_b, 32, 16),
        )
        keys, _ = encode_batch(state.key_encoder, ds.x_a)
        capacity = 128
        queue = MemoryQueue(capacity, 16)
        loss = None
        for step in range(200):
            pick = substream(seed, "batch", step).integers(0, 64, size=32)
            batch = PairBatch(ids=ds.ids[pick], x_a=ds.x_a[pick], x_b=ds.x_b[pick])
            loss = training_step(
                state, queue, batch, tau=0.07, lr=5e-3, weight_decay=0.0,
                key_lookup=lambda ids: keys[ds.rows_for_ids(ids)],
            )
        wins += loss < 0.5 * math.log(1 + capacity)
    assert wins >= 3
