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
    CELL_BUDGET,
    BatchCache,
    EncoderPairState,
    encode_backward,
    encode_batch,
    row_blocks,
    sgd_step,
)
from .errors import DimMismatch, EmptyBatch, NoNegatives


class MemoryQueue:
    """Fixed-capacity FIFO of (key embedding, source id) entries, oldest first.

    Every push builds new read-only arrays, so a snapshot never changes
    after it is taken and needs no copy. The queue also owns the work
    array that ``contrastive_loss`` writes one row block of logits into
    (``scratch``).
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

        The storage first holds ``CELL_BUDGET + capacity`` cells, and is
        replaced only when a call needs more. Every row block of logits that
        ``contrastive_loss`` scores against the queue fits in that while the
        capacity is at most half the budget, so a step loop allocates it
        once, not a new block per step while the queue fills. Pages never
        written take no memory. The storage starts on a 64-byte cache line:
        numpy aligns to 16 bytes only, and a misaligned (128, 256) block
        made a call about 10% slower.
        """
        need = rows * cols
        if self._scratch.size < need:
            size = max(need, CELL_BUDGET + self.capacity)
            buf = np.empty(size + 7)
            start = -buf.ctypes.data % 64 // 8
            self._scratch = buf[start : start + size]
        return self._scratch[:need].reshape(rows, cols)

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
    than six times the queue plus the batch.

    The logits, their exponentials and the backward product are computed
    one block of rows at a time, ``row_blocks(n, max(2, CELL_BUDGET //
    m))``, so the work array holds about ``CELL_BUDGET`` cells however
    long the queue is, not all n x m logits. Each block's logits are
    written into ``queue.scratch`` and exponentiated in place, and no
    probability matrix is built. So no step allocates logits, and a run's
    peak memory does not hang on where the allocator would place them.
    Where the n x m logits exceed the budget, some products round
    differently from one whole-batch product; a call within it is one
    block and runs the whole-batch products.
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
    m = len(ext_negs)
    blocks = row_blocks(n, max(2, CELL_BUDGET // m))
    if len(blocks) == 1:
        excluded = [(rows, cols[hits])]
        work = queue.scratch(n, m)
    else:  # each block's slice of the (row, column) pairs, which come in row order
        edges = [0, *np.searchsorted(rows, [b.start for b in blocks[1:]]).tolist(), len(rows)]
        excluded = [(rows[lo:hi] - b.start, cols[hits[lo:hi]]) for b, lo, hi in zip(blocks, edges, edges[1:])]
        work = queue.scratch(max(b.stop - b.start for b in blocks), m)

    backs = []  # exp(logits) @ [negs, 1], per block
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow takes the fallback
        for b, cells in zip(blocks, excluded):  # each row less its positive logit
            logits = _masked_logits(ext_queries[b], ext_negs, cells, work)
            backs.append(np.exp(logits, out=logits) @ ext_negs)
    back = backs[0] if len(backs) == 1 else np.concatenate(backs)
    if np.isfinite(back).all():
        row_sum = back[:, d]
        total = row_sum + 1.0
        per_row = np.log1p(row_sum)
        d_pos = -row_sum / total
    else:  # every block again: unshifted logits, then the row-max shift
        ext_queries[:, d] = 0.0
        row_max = np.empty(n)
        for b, cells in zip(blocks, excluded):
            logits = _masked_logits(ext_queries[b], ext_negs, cells, work)
            np.maximum(pos_logit[b], np.maximum.reduce(logits, axis=1), out=row_max[b])
            logits -= row_max[b, None]
            back[b] = np.exp(logits, out=logits) @ ext_negs
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


def _masked_logits(ext_queries: np.ndarray, ext_negs: np.ndarray, excluded, work: np.ndarray) -> np.ndarray:
    """``ext_queries @ ext_negs.T`` in the first rows of ``work``, with the ``excluded`` cells at ``-inf``."""
    logits = work[: len(ext_queries)]
    np.matmul(ext_queries, ext_negs.T, out=logits)
    logits[excluded] = -np.inf
    return logits


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
