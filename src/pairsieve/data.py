"""Synthetic paired datasets with planted quality labels.

Each pair couples two modality vectors through a shared latent: good and
clean pairs share one latent (with small and large corruption
respectively), noisy pairs use independent latents. Labels are exact
ground truth, so filtering behaviour can be scored by oracle instead of
human judgment. Token sequences quantize the clean modality-B signal,
giving the masked-token task something learnable that correlates with
pair content.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimMismatch, FormatError, InsufficientData
from .rng import substream
from .store import atomic_open


class Label(IntEnum):
    GOOD = 0
    CLEAN = 1
    NOISY = 2

    @property
    def tag(self) -> str:
        return self.name.lower()

    @classmethod
    def from_tag(cls, tag: str) -> "Label":
        return cls[tag.upper()]


@dataclass
class GenConfig:
    """Generator settings.

    ``sigma_good``/``sigma_clean`` set pair corruption relative to the
    shared latent: observed noise per coordinate has std sigma *
    sqrt(latent_dim), so sigma is roughly the corruption-to-signal ratio
    along each latent axis. Defaults keep the three label populations
    well separated in true pair correlation.

    ``world_seed`` keys the mixing matrices that define the two modality
    spaces; datasets meant to be encodable by one model must share it.
    It defaults to ``seed``, which keys everything else (labels, latents,
    noise, tokens); ``world`` resolves that default.
    """

    n_pairs: int
    latent_dim: int = 16
    d_a: int = 64
    d_b: int = 48
    f_good: float = 0.4
    f_clean: float = 0.3
    f_noisy: float = 0.3
    sigma_good: float = 0.05
    sigma_clean: float = 0.3
    vocab: int = 64
    seq_len: int = 12
    token_coords: int = 4  # distinct B-side coordinates cycled across the sequence
    seed: int = 0
    world_seed: int | None = None

    def __post_init__(self):
        fr = (self.f_good, self.f_clean, self.f_noisy)
        if any(f < 0 for f in fr):
            raise ConfigError("label fractions must be non-negative")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ConfigError(f"label fractions sum to {sum(fr)}, expected 1")
        if self.sigma_good > self.sigma_clean:
            raise ConfigError("sigma_good must not exceed sigma_clean")
        if min(self.sigma_good, self.sigma_clean) < 0:
            raise ConfigError("noise scales must be non-negative")
        if min(self.n_pairs, 1) < 0:
            raise ConfigError("n_pairs must be non-negative")
        if min(self.latent_dim, self.d_a, self.d_b, self.seq_len) <= 0:
            raise ConfigError("dims must be positive")
        if self.vocab < 2:
            raise ConfigError("vocab must be at least 2")
        if not 1 <= self.token_coords <= min(self.seq_len, self.d_b):
            raise ConfigError("token_coords must be in [1, min(seq_len, d_b)]")

    @property
    def world(self) -> int:
        """The seed keying the mixing matrices: ``world_seed``, else ``seed``."""
        return self.seed if self.world_seed is None else self.world_seed


@dataclass
class Dataset:
    """Columnar view of generated pairs; immutable after construction."""

    ids: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int8, Label codes
    x_a: np.ndarray  # (n, d_a)
    x_b: np.ndarray  # (n, d_b)
    tokens: np.ndarray  # (n, seq_len) int64
    config: GenConfig
    _row_of: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.ids)

    def rows_for_ids(self, ids: Sequence[int]) -> np.ndarray:
        if not self._row_of:
            self._row_of.update({int(v): i for i, v in enumerate(self.ids)})
        return np.array([self._row_of[int(v)] for v in ids], dtype=np.int64)

    def take_rows(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            ids=self.ids[rows].copy(),
            labels=self.labels[rows].copy(),
            x_a=self.x_a[rows].copy(),
            x_b=self.x_b[rows].copy(),
            tokens=self.tokens[rows].copy(),
            config=self.config,
        )

    def label_counts(self) -> dict[Label, int]:
        return {lab: int(np.sum(self.labels == lab)) for lab in Label}


def largest_remainder_counts(n: int, fractions: Sequence[float]) -> list[int]:
    """Integer partition of ``n`` proportional to ``fractions`` (exact sum)."""
    shares = [n * f for f in fractions]
    counts = [int(math.floor(s)) for s in shares]
    leftover = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def orthonormal_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """QR of a Gaussian draw, column signs fixed so the result is unique per draw."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def mixing_matrices(cfg: GenConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fixed orthonormal-column maps from latent space to each modality."""
    rng = substream(cfg.world, "mixing")
    a_mix = orthonormal_columns(rng, cfg.d_a, cfg.latent_dim)
    return a_mix, orthonormal_columns(rng, cfg.d_b, cfg.latent_dim)


def _label_plan(cfg: GenConfig) -> np.ndarray:
    counts = largest_remainder_counts(cfg.n_pairs, (cfg.f_good, cfg.f_clean, cfg.f_noisy))
    plan = np.repeat(
        np.array([Label.GOOD, Label.CLEAN, Label.NOISY], dtype=np.int8), counts
    )
    return substream(cfg.seed, "labels").permutation(plan)


def _quantize_tokens(coords: np.ndarray, row_scale: np.ndarray, vocab: int) -> np.ndarray:
    # Gaussian-CDF bucketing: each coordinate is N(0, row_scale^2) under the
    # latent prior, so buckets are uniform over the vocabulary.
    u = np.array([0.5 * (1.0 + math.erf(c / (s * math.sqrt(2.0)))) for c, s in zip(coords, row_scale)])
    return np.minimum((u * vocab).astype(np.int64), vocab - 1)


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Deterministically generate ``cfg.n_pairs`` labeled pairs.

    Each record is produced from its own (seed, id) substream, so output
    is independent of generation order.
    """
    a_mix, b_mix = mixing_matrices(cfg)
    labels = _label_plan(cfg)
    k = cfg.latent_dim
    noise = {
        Label.GOOD: cfg.sigma_good * math.sqrt(k),
        Label.CLEAN: cfg.sigma_clean * math.sqrt(k),
        Label.NOISY: cfg.sigma_clean * math.sqrt(k),
    }
    b_row_scale = np.linalg.norm(b_mix[: cfg.token_coords], axis=1)
    reps = -(-cfg.seq_len // cfg.token_coords)  # ceil

    x_a = np.empty((cfg.n_pairs, cfg.d_a))
    x_b = np.empty((cfg.n_pairs, cfg.d_b))
    tokens = np.empty((cfg.n_pairs, cfg.seq_len), dtype=np.int64)
    for rid in range(cfg.n_pairs):
        rng = substream(cfg.seed, "record", rid)
        lab = Label(int(labels[rid]))
        z_a = rng.standard_normal(k)
        z_b = rng.standard_normal(k) if lab is Label.NOISY else z_a
        scale = noise[lab]
        x_a[rid] = a_mix @ z_a + scale * rng.standard_normal(cfg.d_a)
        x_b[rid] = b_mix @ z_b + scale * rng.standard_normal(cfg.d_b)
        if lab is Label.NOISY:
            tokens[rid] = rng.integers(0, cfg.vocab, size=cfg.seq_len)
        else:
            # Cycle a few quantized coordinates across the sequence; the
            # redundancy is what makes masked positions recoverable.
            clean_b = b_mix[: cfg.token_coords] @ z_b
            base = _quantize_tokens(clean_b, b_row_scale, cfg.vocab)
            tokens[rid] = np.tile(base, reps)[: cfg.seq_len]
    return Dataset(
        ids=np.arange(cfg.n_pairs, dtype=np.int64),
        labels=labels,
        x_a=x_a,
        x_b=x_b,
        tokens=tokens,
        config=cfg,
    )


def split_validation(ds: Dataset, n_val: int, seed: int) -> tuple[Dataset, Dataset]:
    """Carve a validation set out of the good-labeled pairs only."""
    good_rows = np.flatnonzero(ds.labels == Label.GOOD)
    if n_val > good_rows.size:
        raise ConfigError(
            f"requested {n_val} validation pairs, only {good_rows.size} good pairs available"
        )
    perm = substream(seed, "split").permutation(good_rows)
    val_rows = np.sort(perm[:n_val])
    mask = np.ones(len(ds), dtype=bool)
    mask[val_rows] = False
    train = ds.take_rows(np.flatnonzero(mask))
    val = ds.take_rows(val_rows)
    return train, val


def threshold_subsets(
    ds: Dataset, scores: np.ndarray, thresholds: Sequence[float], m: int, seed: int
) -> list[Dataset]:
    """For each threshold, sample m pairs whose score (one per row of ``ds``) exceeds it."""
    scores = np.asarray(scores)
    if len(scores) != len(ds):
        raise DimMismatch(f"{len(scores)} scores for {len(ds)} pairs")
    subsets = []
    for ti, t in enumerate(thresholds):
        eligible = np.flatnonzero(scores > t)
        if eligible.size < m:
            raise InsufficientData(
                f"threshold {t}: {eligible.size} eligible pairs, need {m}"
            )
        pick = substream(seed, "subset", ti).permutation(eligible)[:m]
        subsets.append(ds.take_rows(np.sort(pick)))
    return subsets


def write_manifest(path: str | Path, ds: Dataset) -> None:
    """One JSON object per line: {id, oracle_label, tokens}."""
    with atomic_open(path, "w", encoding="utf-8") as f:
        for i in range(len(ds)):
            row = {
                "id": int(ds.ids[i]),
                "oracle_label": Label(int(ds.labels[i])).tag,
                "tokens": [int(t) for t in ds.tokens[i]],
            }
            f.write(json.dumps(row, sort_keys=True) + "\n")


def read_manifest(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (ids, labels, tokens) arrays from a manifest file."""
    ids, labels, tokens = [], [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                row = json.loads(line)
                ids.append(row["id"])
                labels.append(Label.from_tag(row["oracle_label"]))
                tokens.append(row["tokens"])
            except (ValueError, KeyError, TypeError) as e:
                raise FormatError(f"{path}:{lineno}: malformed manifest line ({e!r})") from e
    try:
        return (
            np.array(ids, dtype=np.int64),
            np.array(labels, dtype=np.int8),
            np.array(tokens, dtype=np.int64),
        )
    except ValueError as e:
        raise FormatError(f"{path}: manifest ids or tokens are not integer arrays ({e})") from e


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and then one CSV line per row."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
