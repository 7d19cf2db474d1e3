"""Teacher-to-student embedding distillation.

A frozen teacher encoder supervises a student through MSE between their
normalized outputs. Teacher and student see different views of the same
underlying content, so the student has to learn the teacher's embedding
geometry rather than copy weights. The teacher is frozen, so
``harness.distill_student`` encodes its targets once; the functions here take them.
"""

from __future__ import annotations

import math

import numpy as np

from .encoder import EncoderParams, cosine_warmup_lr, encode_backward, encode_batch, sgd_step
from .errors import DimMismatch, EmptyBatch, NonFiniteLoss
from .rng import Substreams

# Share of the distillation steps spent ramping the lr up from zero.
WARMUP_FRAC = 0.05


def distill_loss(targets: np.ndarray, student: EncoderParams, x_student: np.ndarray) -> tuple[float, EncoderParams]:
    """Mean squared embedding distance over the batch; grads for the student only."""
    if targets.ndim != 2:
        targets = np.atleast_2d(targets)
    if targets.shape[0] == 0:
        raise EmptyBatch("distillation batch is empty")
    outputs, cache = encode_batch(student, x_student)
    diff = outputs - targets
    n = diff.shape[0]
    loss = float(np.add.reduce(diff * diff, axis=None) / n)
    diff *= 2.0 / n  # the upstream gradient
    grads = encode_backward(student, cache, diff)
    return loss, grads


def distill_mse(targets: np.ndarray, student: EncoderParams, x_student: np.ndarray) -> float:
    """Loss-only evaluation, typically on held-out rows."""
    outputs, _ = encode_batch(student, x_student)
    return float(np.mean(np.sum((outputs - np.atleast_2d(targets)) ** 2, axis=1)))


def run_distillation(
    targets: np.ndarray, student: EncoderParams, x_student: np.ndarray,
    steps: int, base_lr: float, batch_size: int, seed: int,
) -> tuple[EncoderParams, list[float]]:
    """SGD on the distillation loss; returns the student and per-step losses.

    ``targets`` (n, d_e) are the frozen teacher's embeddings and ``x_student``
    (n, student.d_in) the student-view inputs, row-aligned with them.
    """
    if targets.shape[0] != x_student.shape[0]:
        raise DimMismatch("teacher targets and student inputs must pair up row-wise")
    if targets.shape[1] != student.embed_dim:
        raise DimMismatch("teacher and student must share the output dimension")
    if steps <= 0:
        raise ValueError("steps must be positive")
    n = targets.shape[0]
    warmup = int(round(WARMUP_FRAC * steps))
    losses: list[float] = []
    full_batch = batch_size >= n
    streams = Substreams(seed, "distill")
    for step in range(steps):
        if full_batch:
            pick = np.arange(n)
        else:
            pick = streams.at(step).integers(0, n, size=batch_size)
        loss, grads = distill_loss(targets[pick], student, x_student[pick])
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"distillation loss non-finite at step {step}")
        lr = cosine_warmup_lr(step, warmup, steps, base_lr)
        if lr > 0:
            student = sgd_step(student, grads, lr)
        losses.append(loss)
    return student, losses
