import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsieve.contrastive import MemoryQueue, PairBatch, training_step
from pairsieve.encoder import (
    EncoderPairState,
    MlmHead,
    cosine_warmup_lr,
    encode_batch,
    init_mlm_head,
    init_params,
    sgd_step,
)
from pairsieve.errors import ConfigError, EmptyBatch, EmptyMask
from pairsieve.mlm import MaskedBatch, _position_inputs, combined_step, mask_batch, mlm_loss
from pairsieve.numerics import finite_diff_check
from pairsieve.rng import substream

VOCAB = 7


def _mlm_accuracy(query_encoder, head, batch):
    """Fraction of masked positions whose argmax logit hits the original token."""
    emb, _ = encode_batch(query_encoder, _position_inputs(head, batch))
    return float(np.mean(np.argmax(emb @ head.w + head.b, axis=1) == batch.targets))


def test_mask_probability_bounds_rejected():
    rng = substream(0, "mask", 0)
    seqs = np.zeros((2, 4), dtype=np.int64)
    with pytest.raises(ConfigError):
        mask_batch(seqs, 0.0, 0.2, rng, VOCAB)
    with pytest.raises(ConfigError):
        mask_batch(seqs, 1.0, 0.2, rng, VOCAB)
    with pytest.raises(EmptyBatch):
        mask_batch(np.empty((0, 4), dtype=np.int64), 0.15, 0.2, rng, VOCAB)


def test_replace_zero_means_all_mask_token():
    rng = substream(1, "mask", 0)
    seqs = rng.integers(0, VOCAB, size=(20, 10))
    mb = mask_batch(seqs, 0.5, 0.0, substream(1, "mask", 1), VOCAB)
    changed = mb.tokens[mb.mask_rows, mb.mask_cols]
    assert np.all(changed == VOCAB)


def test_targets_recorded_at_masked_positions():
    rng = substream(2, "mask", 0)
    seqs = rng.integers(0, VOCAB, size=(5, 8))
    mb = mask_batch(seqs, 0.3, 0.4, substream(2, "mask", 1), VOCAB)
    np.testing.assert_array_equal(mb.targets, seqs[mb.mask_rows, mb.mask_cols])


@given(st.integers(0, 1000))
@settings(max_examples=40)
def test_replacement_never_reproduces_original(seed):
    rng = substream(seed, "mask", 0)
    seqs = rng.integers(0, VOCAB, size=(10, 12))
    mb = mask_batch(seqs, 0.4, 1.0 - 1e-9, substream(seed, "mask", 1), VOCAB)
    corrupted = mb.tokens[mb.mask_rows, mb.mask_cols]
    originals = seqs[mb.mask_rows, mb.mask_cols]
    replaced = corrupted != VOCAB
    assert np.all(corrupted[replaced] != originals[replaced])
    assert np.all(corrupted[replaced] < VOCAB)


def test_monte_carlo_masking_frequencies():
    # One million tokens: selection 15% +- 0.002, replacement 20% +- 0.005.
    rng = substream(3, "mask", 0)
    seqs = rng.integers(0, 64, size=(83334, 12))
    mb = mask_batch(seqs, 0.15, 0.20, substream(3, "mask", 1), 64)
    total = seqs.size
    selected = mb.mask_rows.shape[0]
    assert abs(selected / total - 0.15) <= 0.002
    corrupted = mb.tokens[mb.mask_rows, mb.mask_cols]
    replaced = np.sum(corrupted != 64)
    assert abs(replaced / selected - 0.20) <= 0.005


def _toy_head(seed=5, d_in=6, d_e=4):
    return init_mlm_head(seed, VOCAB, d_in, d_e)


def test_mlm_loss_uniform_head():
    head = _toy_head()
    head.w[:] = 0.0
    head.b[:] = 0.0
    enc = init_params(6, 6, 5, 4)
    seqs = substream(5, "mask", 0).integers(0, VOCAB, size=(4, 6))
    mb = mask_batch(seqs, 0.4, 0.2, substream(5, "mask", 1), VOCAB)
    loss, _ = mlm_loss(enc, head, mb)
    assert loss == pytest.approx(math.log(VOCAB), abs=1e-12)


def test_mlm_loss_empty_mask():
    head = _toy_head()
    enc = init_params(6, 6, 5, 4)
    empty = MaskedBatch(
        tokens=np.zeros((1, 4), dtype=np.int64),
        mask_rows=np.empty(0, dtype=np.int64),
        mask_cols=np.empty(0, dtype=np.int64),
        targets=np.empty(0, dtype=np.int64),
    )
    with pytest.raises(EmptyMask):
        mlm_loss(enc, head, empty)


def test_mlm_gradient_matches_finite_differences():
    head = _toy_head()
    enc = init_params(7, 6, 5, 4)
    seqs = substream(6, "mask", 0).integers(0, VOCAB, size=(1, 6))
    mb = mask_batch(seqs, 0.4, 0.2, substream(6, "mask", 1), VOCAB)
    assert mb.mask_rows.size > 0

    def loss_fn(arrays):
        from pairsieve.encoder import EncoderParams

        q = EncoderParams(
            np.asarray(arrays[0]).reshape(6, 5),
            np.asarray(arrays[1]),
            np.asarray(arrays[2]).reshape(5, 4),
            np.asarray(arrays[3]),
        )
        h = MlmHead(lift=head.lift, w=np.asarray(arrays[4]), b=np.asarray(arrays[5]))
        loss, grads = mlm_loss(q, h, mb)
        return loss, grads.encoder.arrays() + [grads.head_w, grads.head_b]

    report = finite_diff_check(loss_fn, enc.arrays() + [head.w, head.b])
    assert report.max_rel_err <= 1e-4


def test_unmasked_positions_do_not_contribute():
    # Changing an unmasked target token leaves loss and grads unchanged
    # as long as the corrupted input stays the same.
    head = _toy_head()
    enc = init_params(8, 6, 5, 4)
    seqs = substream(7, "mask", 0).integers(0, VOCAB, size=(3, 6))
    mb = mask_batch(seqs, 0.3, 0.2, substream(7, "mask", 1), VOCAB)
    loss_a, grads_a = mlm_loss(enc, head, mb)
    loss_b, grads_b = mlm_loss(enc, head, mb)
    assert loss_a == loss_b
    for x, y in zip(grads_a.encoder.arrays(), grads_b.encoder.arrays()):
        np.testing.assert_array_equal(x, y)


def test_context_pools_every_position():
    # Two batches that differ only at the unmasked position 0: its token is part of the pooled context.
    head = _toy_head()
    enc = init_params(8, 6, 5, 4)

    def loss_with_first_token(first):
        batch = MaskedBatch(
            tokens=np.array([[first, 3, VOCAB, 5, 1, 2]]),
            mask_rows=np.array([0]),
            mask_cols=np.array([2]),
            targets=np.array([4]),
        )
        return mlm_loss(enc, head, batch)[0]

    assert abs(loss_with_first_token(0) - loss_with_first_token(6)) > 1e-6


def test_mlm_training_beats_constant_baseline():
    from pairsieve.data import GenConfig, generate_dataset

    cfg = GenConfig(n_pairs=3000, seed=3)
    ds = generate_dataset(cfg)
    vocab = cfg.vocab
    flat = ds.tokens.reshape(-1)
    const_acc = Counter(flat.tolist()).most_common(1)[0][1] / flat.size

    enc = init_params(42, cfg.d_b, 32, 16)
    head = init_mlm_head(43, vocab, cfg.d_b, 16)
    for step in range(2000):
        rng = substream(7, "mask", step)
        pick = rng.integers(0, len(ds), size=40)
        mb = mask_batch(ds.tokens[pick], 0.15, 0.2, rng, vocab)
        if mb.mask_rows.size == 0:
            continue
        _, grads = mlm_loss(enc, head, mb)
        lr = cosine_warmup_lr(step, 100, 2000, 0.5)
        if lr > 0:
            enc = sgd_step(enc, grads.encoder, lr)
            head = MlmHead(head.lift, head.w - lr * grads.head_w, head.b - lr * grads.head_b)
    accs = []
    for i in range(20):
        rng = substream(8, "mask", i)
        pick = rng.integers(0, len(ds), size=100)
        mb = mask_batch(ds.tokens[pick], 0.15, 0.2, rng, vocab)
        accs.append(_mlm_accuracy(enc, head, mb))
    assert float(np.mean(accs)) > const_acc


def _pair_state(seed=0, d_a=8, d_b=6, d_e=4):
    return EncoderPairState(
        key_encoder=init_params(seed * 17 + 1, d_a, 5, d_e),
        query_encoder=init_params(seed * 17 + 2, d_b, 5, d_e),
        mlm=init_mlm_head(seed * 17 + 3, VOCAB, d_b, d_e),
    )


def test_combined_step_weight_zero_bit_identical():
    rng = substream(9, "mask", 0)
    pair_batch = PairBatch(
        ids=np.arange(3), x_a=rng.standard_normal((3, 8)), x_b=rng.standard_normal((3, 6))
    )
    seqs = rng.integers(0, VOCAB, size=(2, 6))
    masked = mask_batch(seqs, 0.4, 0.2, substream(9, "mask", 1), VOCAB)

    state_a = _pair_state(1)
    state_b = _pair_state(1)
    queue_a = MemoryQueue(8, 4)
    queue_b = MemoryQueue(8, 4)
    keys, _ = encode_batch(state_a.key_encoder, pair_batch.x_a)
    loss_c, loss_m = combined_step(
        state_a, queue_a, pair_batch, masked, 0.0, tau=0.07, lr=1e-2, weight_decay=0.0,
        key_lookup=lambda ids: keys[ids],
    )
    loss_plain = training_step(
        state_b, queue_b, pair_batch, tau=0.07, lr=1e-2, weight_decay=0.0, key_lookup=lambda ids: keys[ids]
    )
    assert loss_c == loss_plain
    assert loss_m == 0.0
    for a, b in zip(state_a.query_encoder.arrays(), state_b.query_encoder.arrays()):
        assert a.tobytes() == b.tobytes()
    np.testing.assert_array_equal(queue_a.snapshot()[0], queue_b.snapshot()[0])


def test_combined_step_updates_head_and_encoder():
    rng = substream(10, "mask", 0)
    pair_batch = PairBatch(
        ids=np.arange(4), x_a=rng.standard_normal((4, 8)), x_b=rng.standard_normal((4, 6))
    )
    seqs = rng.integers(0, VOCAB, size=(3, 6))
    masked = mask_batch(seqs, 0.4, 0.2, substream(10, "mask", 1), VOCAB)
    state = _pair_state(2)
    head_before = state.mlm.w.copy()
    enc_before = state.query_encoder.w1.copy()
    key_before = [a.copy() for a in state.key_encoder.arrays()]
    queue = MemoryQueue(8, 4)
    keys, _ = encode_batch(state.key_encoder, pair_batch.x_a)
    loss_c, loss_m = combined_step(
        state, queue, pair_batch, masked, 0.5, tau=0.07, lr=1e-2, weight_decay=0.0,
        key_lookup=lambda ids: keys[ids],
    )
    assert loss_m > 0
    assert not np.array_equal(state.mlm.w, head_before)
    assert not np.array_equal(state.query_encoder.w1, enc_before)
    for a, b in zip(state.key_encoder.arrays(), key_before):
        np.testing.assert_array_equal(a, b)  # key tower stays frozen
