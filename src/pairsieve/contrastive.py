"""Memory-queue contrastive training with a frozen key encoder.

Negatives come from a FIFO queue of key embeddings. Because the key
encoder never updates, queue entries stay consistent with fresh
encodings at any capacity, and gradients flow only to the query tower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .encoder import (
    BatchCache,
    EncoderPairState,
    encode_backward,
    encode_batch,
    sgd_step,
)
from .errors import DimMismatch, EmptyBatch, NoNegatives


class MemoryQueue:
    """Fixed-capacity FIFO of (key embedding, source id) entries, oldest first.

    Every push builds new read-only arrays, so a snapshot never changes
    after it is taken and needs no copy. The queue also owns the work
    array that ``contrastive_loss`` writes its logits into (``scratch``).
    """

    def __init__(self, capacity: int, dim: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dim = dim
        self._keep(np.empty((0, dim)), np.empty(0, dtype=np.int64))
        self._scratch = np.empty(0)

    def scratch(self, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) work array over storage that later calls reuse; its contents are left over.

        The storage holds ``rows * max(cols, capacity)`` cells and is replaced
        only when a call needs more, so a step loop allocates it once, not a
        new logits matrix per step while the queue fills. Pages never written
        take no memory.
        """
        need = rows * max(cols, self.capacity)
        if self._scratch.size < need:
            self._scratch = np.empty(need)
        return self._scratch[: rows * cols].reshape(rows, cols)

    def _keep(self, emb: np.ndarray, ids: np.ndarray) -> None:
        self._emb, self._ids = emb[-self.capacity :], ids[-self.capacity :]
        self._emb.flags.writeable = self._ids.flags.writeable = False

    def __len__(self) -> int:
        return self._ids.shape[0]

    def push(self, keys: np.ndarray, ids: Sequence[int]) -> None:
        """Append keys in order, evicting oldest entries past capacity."""
        keys = np.atleast_2d(keys)
        if keys.shape[0] == 0:
            return
        if keys.shape[1] != self.dim:
            raise DimMismatch(f"key dim {keys.shape[1]}, queue dim {self.dim}")
        if keys.shape[0] != len(ids):
            raise DimMismatch("one id required per key")
        ids = np.asarray(ids, dtype=np.int64)
        self._keep(np.concatenate([self._emb, keys]), np.concatenate([self._ids, ids]))

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Current entries oldest-first: (embeddings, source ids), read-only."""
        return self._emb, self._ids


@dataclass
class ContrastiveBatch:
    """Aligned query/positive embeddings for one step."""

    queries: np.ndarray  # (n, d_e), unit rows, from the trainable encoder
    positives: np.ndarray  # (n, d_e), unit rows, from the frozen encoder
    ids: np.ndarray  # (n,) source pair ids


@dataclass
class PairBatch:
    """Raw minibatch slice: pair ids and the query tower's inputs.

    A step reads its keys through ``key_lookup(ids)``, never the key
    tower's raw inputs, so ``x_a`` is optional and no step reads it.
    """

    ids: np.ndarray
    x_b: np.ndarray
    x_a: np.ndarray | None = field(default=None, kw_only=True)


def contrastive_loss(
    batch: ContrastiveBatch, queue: MemoryQueue, tau: float
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of each query against its positive.

    Negatives are the queue snapshot, excluding entries whose source id
    matches the query's own pair. On an empty queue the other in-batch
    positives serve as negatives (warm start); the same id match then
    excludes each query's own positive. Returns the loss and
    d(loss)/d(queries); keys and queue entries are constants.

    Each row's softmax is shifted by its positive logit, and the shift
    happens inside the logits product: ``[q/tau, -pos] @ [negs, 1].T``
    gives every negative logit less its row's positive one, so no pass
    over the (n, m) logits looks for a row maximum or subtracts it. The
    positive then contributes exactly 1, and with ``s`` the row's sum of
    exponentiated negatives the row's loss is ``log1p(s)``. The same
    ones column makes the backward product ``exp(logits) @ [negs, 1]``
    return the gradient's negative term in its first columns and ``s``
    in its last, so no pass sums the rows either.

    That shift bounds nothing from above: when some negative's logit
    exceeds its positive's by more than about 709, which needs rows far
    from unit length or a very small ``tau``, its exponential overflows.
    If the backward product holds any non-finite value, the whole call
    falls back to shifting each row by its maximum logit, positive
    included, as the textbook stabilised softmax does.

    Excluded entries are found per column with ``np.isin`` and only
    their (row, column) cells are set to ``-inf``, so they add nothing
    to the softmax. ``isin`` always takes its lookup-table path: every
    caller's ids are row indices, so the table holds one byte per row at
    most, while numpy's default sorts whenever the batch's ids span more
    than six times the queue plus the batch. The logits are written into
    ``queue.scratch`` and exponentiated in place, and no probability
    matrix is built. So a step allocates no (n, m) matrix, and a run's
    peak memory does not hang on where the allocator would place a fresh
    one each step.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = batch.queries.shape[0]
    if n == 0:
        raise EmptyBatch("contrastive batch is empty")
    if batch.queries.shape != batch.positives.shape:
        raise DimMismatch("queries and positives must align")

    negs, neg_ids = queue.snapshot()
    if negs.shape[0] == 0:
        if n == 1:
            raise NoNegatives("empty queue and batch of one leave nothing to contrast")
        negs, neg_ids = batch.positives, batch.ids

    d = negs.shape[1]
    ext_queries = np.empty((n, d + 1))  # [q/tau, -pos_logit]
    queries = np.multiply(batch.queries, 1.0 / tau, out=ext_queries[:, :d])
    pos_logit = np.einsum("ij,ij->i", queries, batch.positives)  # (n,)
    np.negative(pos_logit, out=ext_queries[:, d])
    ext_negs = np.empty((negs.shape[0], d + 1))  # [negs, 1]
    ext_negs[:, :d] = negs
    ext_negs[:, d] = 1.0
    cols = np.flatnonzero(np.isin(neg_ids, batch.ids, kind="table"))
    rows, hits = np.nonzero(batch.ids[:, None] == neg_ids[cols][None, :])
    excluded = rows, cols[hits]

    logits = queue.scratch(n, len(ext_negs))  # (n, m), each row less its positive logit
    np.matmul(ext_queries, ext_negs.T, out=logits)
    logits[excluded] = -np.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow takes the fallback
        back = np.exp(logits, out=logits) @ ext_negs  # (n, d + 1)
    if np.isfinite(back).all():
        row_sum = back[:, d]
        total = row_sum + 1.0
        per_row = np.log1p(row_sum)
        d_pos = -row_sum / total
    else:  # unshifted logits, then the row-max shift
        ext_queries[:, d] = 0.0
        np.matmul(ext_queries, ext_negs.T, out=logits)
        logits[excluded] = -np.inf
        row_max = np.maximum(pos_logit, np.maximum.reduce(logits, axis=1))
        logits -= row_max[:, None]
        back = np.exp(logits, out=logits) @ ext_negs
        pos_exp = pos_logit - row_max
        np.exp(pos_exp, out=pos_exp)
        total = back[:, d] + pos_exp
        per_row = row_max - pos_logit
        per_row += np.log(total)
        d_pos = pos_exp / total
        d_pos -= 1.0
    loss = float(np.add.reduce(per_row) / n)

    d_queries = back[:, :d] / total[:, None]
    d_queries += d_pos[:, None] * batch.positives
    d_queries /= tau * n
    return loss, d_queries


KeyLookup = Callable[[np.ndarray], np.ndarray]


def contrastive_forward(
    state: EncoderPairState,
    queue: MemoryQueue,
    batch: PairBatch,
    tau: float,
    key_lookup: KeyLookup,
) -> tuple[np.ndarray, BatchCache, float, np.ndarray]:
    """Keys, query forward pass and contrastive loss of one training step.

    The key tower is frozen, so its embeddings are computed once outside
    the step; ``key_lookup(batch.ids)`` gathers the batch's rows of them.
    Returns (keys, query forward cache, loss, d(loss)/d(queries)).
    """
    if batch.ids.shape[0] == 0:
        raise EmptyBatch("training batch is empty")
    keys = key_lookup(batch.ids)
    queries, cache = encode_batch(state.query_encoder, batch.x_b)
    cbatch = ContrastiveBatch(queries=queries, positives=keys, ids=batch.ids)
    loss, d_queries = contrastive_loss(cbatch, queue, tau)
    return keys, cache, loss, d_queries


def training_step(
    state: EncoderPairState,
    queue: MemoryQueue,
    batch: PairBatch,
    tau: float,
    lr: float,
    weight_decay: float,
    key_lookup: KeyLookup,
) -> float:
    """One contrastive update of ``state``'s query encoder and of ``queue``; returns the loss.

    The batch's keys are pushed only after the loss, so a pair never
    serves as its own negative within the step.
    """
    keys, cache, loss, d_queries = contrastive_forward(state, queue, batch, tau, key_lookup)
    if lr > 0:
        grads = encode_backward(state.query_encoder, cache, d_queries)
        state.query_encoder = sgd_step(state.query_encoder, grads, lr, weight_decay)
    state.step += 1
    queue.push(keys, batch.ids)
    return loss
