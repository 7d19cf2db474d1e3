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
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .rng import Substreams, substream
from .store import atomic_open


class Label(IntEnum):
    GOOD = 0
    CLEAN = 1
    NOISY = 2

    @property
    def tag(self) -> str:
        return self.name.lower()


LABEL_TAGS = tuple(lab.tag for lab in Label)  # indexed by label code


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
        if self.n_pairs < 0:
            raise ConfigError("n_pairs must be non-negative")
        if min(self.latent_dim, self.d_a, self.d_b, self.seq_len) <= 0:
            raise ConfigError("dims must be positive")
        if self.latent_dim > min(self.d_a, self.d_b):
            raise ConfigError("latent_dim must not exceed min(d_a, d_b)")
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


# Records per block: bounds the draw buffer and the block-math temporaries.
_BLOCK = 256


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Deterministically generate ``cfg.n_pairs`` labeled pairs.

    Each record is produced from its own (seed, "record", id) substream,
    so output is independent of generation order. The records of a block
    draw in turn from one re-keyed generator; the math then runs over the
    whole block.
    """
    a_mix, b_mix = mixing_matrices(cfg)
    labels = _label_plan(cfg)
    k, d_a, tc = cfg.latent_dim, cfg.d_a, cfg.token_coords
    noise = np.array([cfg.sigma_good, cfg.sigma_clean, cfg.sigma_clean]) * math.sqrt(k)
    b_head = b_mix[:tc]
    # Gaussian-CDF bucketing: each token coordinate is N(0, s^2) under the
    # latent prior, s its row norm in b_mix, so buckets are uniform over
    # the vocabulary. erf is libm's, called per value.
    erf = np.frompyfunc(math.erf, 1, 1)
    erf_den = np.linalg.norm(b_head, axis=1) * math.sqrt(2.0)
    reps = -(-cfg.seq_len // tc)  # ceil

    x_a = np.empty((cfg.n_pairs, d_a))
    x_b = np.empty((cfg.n_pairs, cfg.d_b))
    tokens = np.empty((cfg.n_pairs, cfg.seq_len), dtype=np.int64)
    # One row of draws per record: [z_a | z_b | noise_a | noise_b]. A
    # record draws z_a, then z_b if noisy, then the noise for a and for b,
    # so a noisy record fills its row in one call. A good or clean record
    # has one latent: it fills the row from z_b on, then copies z_b to z_a.
    draws = np.empty((_BLOCK, 2 * k + d_a + cfg.d_b))
    streams = Substreams(cfg.seed, "record")
    for start in range(0, cfg.n_pairs, _BLOCK):
        stop = min(start + _BLOCK, cfg.n_pairs)
        block = draws[: stop - start]
        noisy = labels[start:stop] == Label.NOISY
        for row, rid, is_noisy in zip(block, range(start, stop), noisy.tolist()):
            rng = streams.at(rid)
            if is_noisy:
                rng.standard_normal(out=row)
                tokens[rid] = rng.integers(0, cfg.vocab, size=cfg.seq_len)
            else:
                rng.standard_normal(out=row[k:])
        shared = ~noisy
        block[shared, :k] = block[shared, k : 2 * k]
        block[:, 2 * k :] *= noise[labels[start:stop]][:, None]
        # A stacked matmul runs one gemv per record, as the per-record
        # product did; a 2-D product changes the last bits.
        z = block[:, : 2 * k].reshape(-1, 2, k, 1)
        np.matmul(a_mix, z[:, 0], out=x_a[start:stop, :, None])
        np.matmul(b_mix, z[:, 1], out=x_b[start:stop, :, None])
        x_a[start:stop] += block[:, 2 * k : 2 * k + d_a]
        x_b[start:stop] += block[:, 2 * k + d_a :]
        # Cycle a few quantized coordinates across the sequence; the
        # redundancy is what makes masked positions recoverable.
        u = 0.5 * (1.0 + erf((b_head @ z[shared, 1])[..., 0] / erf_den).astype(float))
        base = np.minimum((u * cfg.vocab).astype(np.int64), cfg.vocab - 1)
        tokens[start:stop][shared] = np.tile(base, reps)[:, : cfg.seq_len]
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


def write_manifest(path: str | Path, ds: Dataset) -> None:
    """One JSON object per line: {id, oracle_label, tokens}.

    Each line has the bytes of ``json.dumps(row, sort_keys=True)``, built
    directly from the columns.
    """
    with atomic_open(path, "w", encoding="utf-8") as f:
        for rid, lab, row in zip(ds.ids.tolist(), ds.labels.tolist(), ds.tokens.tolist()):
            toks = ", ".join(map(str, row))
            f.write(f'{{"id": {rid}, "oracle_label": "{LABEL_TAGS[lab]}", "tokens": [{toks}]}}\n')


def read_manifest(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (ids, labels, tokens) arrays from a manifest file.

    Labels must be ``LABEL_TAGS`` exactly; ids and tokens must read as 1-D and 2-D integer arrays.
    """
    ids, labels, tokens = [], [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                row = json.loads(line)
                if isinstance(row["id"], bool):  # numpy would read true as 1
                    raise TypeError("id is a JSON boolean")
                ids.append(row["id"])
                labels.append(LABEL_TAGS.index(row["oracle_label"]))
                tokens.append(row["tokens"])
            except (ValueError, KeyError, TypeError) as e:
                raise FormatError(f"{path}:{lineno}: malformed manifest line ({e!r})") from e
    if not ids:
        return np.zeros(0, np.int64), np.zeros(0, np.int8), np.zeros((0, 0), np.int64)
    try:
        id_col, token_rows = np.array(ids), np.array(tokens)
    except ValueError as e:
        raise FormatError(f"{path}: manifest ids or tokens are not integer arrays ({e})") from e
    for name, col, ndim in (("ids", id_col, 1), ("tokens", token_rows, 2)):
        if col.ndim != ndim or not np.issubdtype(col.dtype, np.signedinteger):
            raise FormatError(f"{path}: manifest ids or tokens are not integer arrays ({name} read as {col.ndim}-D {col.dtype})")
    if bool in set(map(type, chain.from_iterable(tokens))):  # numpy reads false beside ints as 0
        raise FormatError(f"{path}: manifest ids or tokens are not integer arrays (tokens hold JSON booleans)")
    return id_col.astype(np.int64, copy=False), np.array(labels, dtype=np.int8), token_rows.astype(np.int64, copy=False)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and then one CSV line per row."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
