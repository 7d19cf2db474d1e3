"""Finite-difference gradient checker for the hand-derived losses.

Parameters are float64 numpy arrays, so the checks stay tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimMismatch, NonFiniteLoss

# Relative-error denominators are clamped here to avoid division blowup
# when both gradients are near zero.
REL_ERR_FLOOR = 1e-8


@dataclass
class GradCheckReport:
    """Worst-case agreement between analytic and numeric gradients."""

    max_rel_err: float
    param_count: int
    worst_param: int = -1  # index into the params list
    worst_offset: int = -1  # flat offset within that parameter

    def __post_init__(self):
        if self.max_rel_err < 0:
            raise ValueError("max_rel_err must be non-negative")


LossAndGrads = Callable[[Sequence[np.ndarray]], tuple[float, Sequence[np.ndarray]]]


def finite_diff_check(
    loss_and_grads: LossAndGrads,
    params: Sequence[np.ndarray],
    step: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grads`` must be pure and deterministic, returning the loss
    and one gradient array per parameter. Every scalar parameter is
    perturbed by +-step and the centered difference is compared to the
    analytic entry with relative error |a - n| / max(|a|, |n|, 1e-8).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base_loss, grads = loss_and_grads(params)
    if not np.isfinite(base_loss):
        raise NonFiniteLoss(f"loss is {base_loss}")
    if len(grads) != len(params):
        raise DimMismatch("one gradient array required per parameter")

    work = [np.array(p, dtype=np.float64, copy=True) for p in params]
    max_rel = 0.0
    worst_param = -1
    worst_offset = -1
    count = 0
    for pi, p in enumerate(work):
        flat = p.reshape(-1)
        gflat = np.asarray(grads[pi]).reshape(-1)
        if gflat.shape != flat.shape:
            raise DimMismatch(f"gradient {pi} shape mismatch")
        for off in range(flat.shape[0]):
            orig = flat[off]
            flat[off] = orig + step
            up, _ = loss_and_grads(work)
            flat[off] = orig - step
            down, _ = loss_and_grads(work)
            flat[off] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteLoss(f"loss non-finite at param {pi} offset {off}")
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[off]
            denom = max(abs(analytic), abs(numeric), REL_ERR_FLOOR)
            rel = abs(analytic - numeric) / denom
            if rel > max_rel:
                max_rel = rel
                worst_param = pi
                worst_offset = off
            count += 1
    return GradCheckReport(max_rel, count, worst_param, worst_offset)
