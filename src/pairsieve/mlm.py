"""Masked-token auxiliary objective over the synthetic token corpus.

Token sequences are corrupted by masking, the query encoder embeds each
masked position (its lifted token plus the mean-pooled lifted context),
and a linear head predicts the original token. The task shares the query
encoder with contrastive training and is weighted by the ratio of the
two batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# contrastive_loss stays bound here: perfbench/tests checks that tracing rebinds it in every module.
from .contrastive import KeyLookup, MemoryQueue, PairBatch, contrastive_forward, contrastive_loss  # noqa: F401
from .encoder import EncoderPairState, EncoderParams, MlmHead, encode_backward, encode_batch, sgd_step
from .errors import ConfigError, EmptyBatch, EmptyMask


@dataclass
class MaskedBatch:
    """Corrupted sequences plus the positions and originals to recover."""

    tokens: np.ndarray  # (n, L) with substitutions applied; mask id == vocab
    mask_rows: np.ndarray  # (m,)
    mask_cols: np.ndarray  # (m,)
    targets: np.ndarray  # (m,) original tokens at masked positions


def mask_batch(
    sequences: np.ndarray,
    p_mask: float,
    p_replace: float,
    rng: np.random.Generator,
    vocab: int,
) -> MaskedBatch:
    """Corrupt sequences for masked-token training.

    Every token is independently selected with probability ``p_mask``. A
    selected token becomes a uniformly random different token with
    probability ``p_replace`` and the mask token otherwise.
    """
    if not 0 < p_mask < 1:
        raise ConfigError(f"p_mask must be in (0, 1), got {p_mask}")
    if not 0 <= p_replace < 1:
        raise ConfigError(f"p_replace must be in [0, 1), got {p_replace}")
    sequences = np.atleast_2d(sequences)
    if sequences.size == 0:
        raise EmptyBatch("no sequences to mask")

    shape = sequences.shape
    selected = rng.random(shape) < p_mask
    branch = rng.random(shape)
    # Uniform over the vocab minus the original token.
    repl = rng.integers(0, vocab - 1, size=shape)
    repl = repl + (repl >= sequences)

    corrupted = sequences.copy()
    to_replace = selected & (branch < p_replace)
    to_mask = selected & ~to_replace
    corrupted[to_mask] = vocab
    corrupted[to_replace] = repl[to_replace]

    rows, cols = np.nonzero(selected)
    return MaskedBatch(
        tokens=corrupted,
        mask_rows=rows,
        mask_cols=cols,
        targets=sequences[rows, cols].copy(),
    )


@dataclass
class MlmGrads:
    encoder: EncoderParams
    head_w: np.ndarray
    head_b: np.ndarray


def _position_inputs(head: MlmHead, batch: MaskedBatch) -> np.ndarray:
    lifted = head.lift[batch.tokens]  # (n, L, d_in)
    context = lifted.mean(axis=1)  # (n, d_in)
    return lifted[batch.mask_rows, batch.mask_cols] + context[batch.mask_rows]


def mlm_loss(query_encoder, head: MlmHead, batch: MaskedBatch) -> tuple[float, MlmGrads]:
    """Mean cross-entropy over masked positions; grads for encoder and head."""
    m = batch.mask_rows.shape[0]
    if m == 0:
        raise EmptyMask("batch has no masked positions")
    inputs = _position_inputs(head, batch)
    emb, cache = encode_batch(query_encoder, inputs)
    rows = np.arange(m)
    shifted = emb @ head.w  # (m, vocab) logits, shifted below by each row's max
    shifted += head.b
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    picked = shifted[rows, batch.targets]
    exp = np.exp(shifted, out=shifted)
    total = np.add.reduce(exp, axis=1)
    picked -= np.log(total)
    loss = float(-(np.add.reduce(picked) / m))

    d_logits = exp  # the softmax, then minus the one-hot targets, over m
    d_logits /= total[:, None]
    d_logits[rows, batch.targets] -= 1.0
    d_logits /= m
    head_w_grad = emb.T @ d_logits
    head_b_grad = np.add.reduce(d_logits, axis=0)
    d_emb = d_logits @ head.w.T
    enc_grads = encode_backward(query_encoder, cache, d_emb)
    return loss, MlmGrads(enc_grads, head_w_grad, head_b_grad)


def combined_step(
    state: EncoderPairState,
    queue: MemoryQueue,
    pair_batch: PairBatch,
    text_batch: MaskedBatch,
    text_weight: float,
    tau: float,
    lr: float,
    weight_decay: float,
    key_lookup: KeyLookup,
) -> tuple[float, float]:
    """One update of ``state`` and ``queue`` combining the contrastive and masked-token objectives.

    Returns (loss_c, loss_mlm). The masked-token gradient enters scaled by
    ``text_weight`` (the run passes batch_text/batch_pairs); at weight
    zero the update is exactly the contrastive-only step.
    """
    keys, cache, loss_c, d_queries = contrastive_forward(state, queue, pair_batch, tau, key_lookup)
    w = text_weight
    loss_mlm = 0.0
    if w > 0:
        loss_mlm, mlm_grads = mlm_loss(state.query_encoder, state.mlm, text_batch)
    if lr > 0:
        grads = encode_backward(state.query_encoder, cache, d_queries)
        if w > 0:
            grads = EncoderParams(*(g + w * m for g, m in zip(grads.arrays(), mlm_grads.encoder.arrays())))
            state.mlm = MlmHead(
                lift=state.mlm.lift,
                w=state.mlm.w - lr * (w * mlm_grads.head_w + weight_decay * state.mlm.w),
                b=state.mlm.b - lr * w * mlm_grads.head_b,
            )
        state.query_encoder = sgd_step(state.query_encoder, grads, lr, weight_decay)
    state.step += 1
    queue.push(keys, pair_batch.ids)
    return loss_c, loss_mlm
