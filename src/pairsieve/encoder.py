"""One-hidden-layer tanh encoders with hand-derived gradients.

Both towers of the dual-encoder pair share this parameterization. The
forward pass ends in l2 normalization so downstream similarity is a
plain dot product; the backward pass therefore includes the
normalization Jacobian (I - ee^T)/|raw|.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheMismatch, DimMismatch, FormatError, NonFiniteLoss, ZeroNorm
from .rng import substream
from .store import atomic_open

CHECKPOINT_MAGIC = b"ECPM"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIII")


@dataclass
class EncoderParams:
    """Weights of one encoder tower: x -> v / |v| with v = W2^T tanh(W1^T x + b1) + b2.

    Gradients use the same type, one array per weight.
    """

    w1: np.ndarray  # (d_in, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, embed_dim)
    b2: np.ndarray  # (embed_dim,)

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


@dataclass
class MlmHead:
    """Masked-token prediction head plus the fixed token lift table.

    ``lift`` maps token ids (vocab entries plus the mask token) into the
    encoder input space and is never trained; ``w``/``b`` produce vocab
    logits from encoder embeddings.
    """

    lift: np.ndarray  # (vocab + 1, d_in), frozen
    w: np.ndarray  # (embed_dim, vocab)
    b: np.ndarray  # (vocab,)


@dataclass
class EncoderPairState:
    """Trainable state of the dual-encoder pair.

    ``key_encoder`` is frozen (its arrays are never replaced after
    construction); ``query_encoder`` and ``mlm`` receive updates.
    ``step`` counts applied gradient steps for the lr schedule.
    """

    key_encoder: EncoderParams
    query_encoder: EncoderParams
    mlm: MlmHead | None = None
    step: int = 0


@dataclass
class BatchCache:
    """Forward activations kept for the backward pass."""

    params_id: int
    x: np.ndarray  # (n, d_in)
    h: np.ndarray  # (n, hidden)
    emb: np.ndarray  # (n, embed_dim), unit rows
    norm: np.ndarray  # (n,)


def init_params(seed: int, d_in: int, hidden: int, embed_dim: int) -> EncoderParams:
    """Scaled-uniform weights (+-1/sqrt(fan_in)), zero biases, deterministic per seed."""
    if min(d_in, hidden, embed_dim) <= 0:
        raise ValueError("encoder dims must be positive")
    rng = substream(seed, "init")
    lim1 = 1.0 / np.sqrt(d_in)
    lim2 = 1.0 / np.sqrt(hidden)
    return EncoderParams(
        w1=rng.uniform(-lim1, lim1, size=(d_in, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=(hidden, embed_dim)),
        b2=np.zeros(embed_dim),
    )


def init_mlm_head(seed: int, vocab: int, d_in: int, embed_dim: int) -> MlmHead:
    """Fixed random token lift plus a small random logit head."""
    rng = substream(seed, "init", 1)
    # Lift rows scaled so token inputs match the magnitude of raw pair vectors.
    lift = rng.standard_normal((vocab + 1, d_in)) * np.sqrt(embed_dim / d_in)
    w = rng.uniform(-1.0 / np.sqrt(embed_dim), 1.0 / np.sqrt(embed_dim), size=(embed_dim, vocab))
    return MlmHead(lift=lift, w=w, b=np.zeros(vocab))


# Cells a row-blocked product writes at once (1 MB of float64), whatever the set size: a block and its
# temporaries stay within a 2 MB L2 cache. Callers take blocks of ``max(2, CELL_BUDGET // width)`` rows.
CELL_BUDGET = 1 << 17


def row_blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` rows that cover ``range(n)``, for ``size`` of 2 or more.

    A lone last row joins the block before it: a one-row product takes
    numpy's matrix-vector path, which rounds differently from the same row
    inside a larger product. So a result built block by block from row-wise
    products equals the whole-set one bit for bit.
    """
    edges = [*range(0, n, size), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(s, e) for s, e in zip(edges, edges[1:])]


def encode_batch(p: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, BatchCache]:
    """Encode rows of ``x`` to unit-norm embeddings.

    The returned embeddings are the cache's ``emb`` array, so a caller
    that keeps the cache for ``encode_backward`` must not write into them.
    Neither ``x`` nor the parameters are written.
    """
    if x.ndim != 2:
        x = np.atleast_2d(x)
    if x.shape[1] != p.d_in:
        raise DimMismatch(f"input dim {x.shape[1]}, encoder expects {p.d_in}")
    h = x @ p.w1
    h += p.b1
    np.tanh(h, out=h)
    raw = h @ p.w2
    raw += p.b2
    # What np.linalg.norm(raw, axis=1) computes, without its wrapper.
    norm = np.sqrt(np.add.reduce(raw * raw, axis=1))
    # One min/max pass; only a failing batch runs the checks that pick the error (non-finite before zero).
    if norm.size and not (norm.min() > 0.0 and norm.max() < np.inf):
        if not np.all(np.isfinite(norm)):
            raise NonFiniteLoss("encoder produced a non-finite embedding norm")
        raise ZeroNorm("encoder produced a zero embedding before normalization")
    raw /= norm[:, None]
    return raw, BatchCache(id(p), x, h, raw, norm)


def encode_backward(p: EncoderParams, cache: BatchCache, upstream: np.ndarray) -> EncoderParams:
    """Accumulate parameter gradients for upstream d(loss)/d(embedding).

    Writes only into arrays it builds; ``upstream``, the cache and ``p`` are read.
    """
    if cache.params_id != id(p):
        raise CacheMismatch("cache was produced by a different parameter set")
    if upstream.ndim != 2:
        upstream = np.atleast_2d(upstream)
    emb, h = cache.emb, cache.h
    if upstream.shape != emb.shape:
        raise DimMismatch(f"upstream shape {upstream.shape} vs {emb.shape}")
    # Normalization Jacobian: d_raw = (g - (g.e)e)/|raw|.
    proj = np.add.reduce(upstream * emb, axis=1, keepdims=True)
    d_raw = proj * emb
    np.subtract(upstream, d_raw, out=d_raw)
    d_raw /= cache.norm[:, None]
    d_w2 = h.T @ d_raw
    d_b2 = np.add.reduce(d_raw, axis=0)
    d_pre = d_raw @ p.w2.T  # d(loss)/dh, then times tanh' = 1 - h^2
    gate = h * h
    np.subtract(1.0, gate, out=gate)
    d_pre *= gate
    d_w1 = cache.x.T @ d_pre
    d_b1 = np.add.reduce(d_pre, axis=0)
    return EncoderParams(d_w1, d_b1, d_w2, d_b2)


def sgd_step(
    p: EncoderParams, g: EncoderParams, lr: float, weight_decay: float = 0.0
) -> EncoderParams:
    """theta <- theta - lr * (g + weight_decay * theta); biases exempt from decay."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    return EncoderParams(
        w1=_descend(p.w1, g.w1, lr, weight_decay),
        b1=_descend(p.b1, g.b1, lr),
        w2=_descend(p.w2, g.w2, lr, weight_decay),
        b2=_descend(p.b2, g.b2, lr),
    )


def _descend(w: np.ndarray, gw: np.ndarray, lr: float, weight_decay: float | None = None) -> np.ndarray:
    """w - lr * (gw + weight_decay * w), or w - lr * gw without decay, in one new array."""
    if weight_decay is None:
        step = lr * gw
    else:
        step = weight_decay * w
        step += gw
        step *= lr
    return np.subtract(w, step, out=step)


def cosine_warmup_lr(step: int, warmup_steps: int, total_steps: int, base_lr: float) -> float:
    """Linear ramp to base_lr over warmup_steps, then cosine decay to 0."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    if step >= total_steps:
        return 0.0
    span = max(total_steps - warmup_steps, 1)
    frac = (step - warmup_steps) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def save_params(path: str | Path, p: EncoderParams) -> None:
    """Write an encoder checkpoint (bit-exact round trip)."""
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in p.arrays()
    )
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, p.d_in, p.hidden, p.embed_dim)
    with atomic_open(path) as f:
        f.write(header)
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())


def load_params(path: str | Path) -> EncoderParams:
    """Read a checkpoint written by save_params."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, d_in, hidden, embed_dim = _HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    sizes = [d_in * hidden, hidden, hidden * embed_dim, embed_dim]
    expected = _HEADER.size + 8 * sum(sizes)
    if len(blob) != expected:
        raise FormatError(f"{path}: size {len(blob)}, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    w1, b1, w2, b2 = np.split(flat, np.cumsum(sizes)[:-1])
    return EncoderParams(
        w1=w1.reshape(d_in, hidden).copy(),
        b1=b1.copy(),
        w2=w2.reshape(hidden, embed_dim).copy(),
        b2=b2.copy(),
    )
