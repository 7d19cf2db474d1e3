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
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, count, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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
    x_a: np.ndarray | None  # (n, d_a); None in a pretraining run once its frozen keys are encoded
    x_b: np.ndarray  # (n, d_b)
    tokens: np.ndarray  # (n, seq_len) int64
    config: GenConfig

    def __len__(self) -> int:
        return len(self.ids)

    def rows_for_ids(self, ids: Sequence[int]) -> np.ndarray:
        row_of = {v: i for i, v in enumerate(self.ids.tolist())}
        return np.array([row_of[int(v)] for v in ids], dtype=np.int64)

    def take_rows(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            ids=self.ids[rows],
            labels=self.labels[rows],
            x_a=self.x_a[rows],
            x_b=self.x_b[rows],
            tokens=self.tokens[rows],
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


def label_plan(cfg: GenConfig) -> np.ndarray:
    """The label code of every row, fixed before any record is drawn."""
    counts = largest_remainder_counts(cfg.n_pairs, (cfg.f_good, cfg.f_clean, cfg.f_noisy))
    plan = np.repeat(
        np.array([Label.GOOD, Label.CLEAN, Label.NOISY], dtype=np.int8), counts
    )
    return substream(cfg.seed, "labels").permutation(plan)


# Records per block: bounds the draw buffer, the block-math temporaries and the manifest's Python lists.
_BLOCK = 256


def generate_blocks(cfg: GenConfig) -> Iterator[Dataset]:
    """Generate ``cfg.n_pairs`` labeled pairs as consecutive blocks of at most ``_BLOCK`` rows.

    Each record is produced from its own (seed, "record", id) substream,
    so output is independent of generation order. The records of a block
    draw in turn from one re-keyed generator; the math then runs over the
    whole block. Each block is a fresh ``Dataset`` whose ids are its rows.
    """
    a_mix, b_mix = mixing_matrices(cfg)
    labels = label_plan(cfg)
    k, d_a, tc = cfg.latent_dim, cfg.d_a, cfg.token_coords
    noise = np.array([cfg.sigma_good, cfg.sigma_clean, cfg.sigma_clean]) * math.sqrt(k)
    b_head = b_mix[:tc]
    # Gaussian-CDF bucketing: each token coordinate is N(0, s^2) under the
    # latent prior, s its row norm in b_mix, so buckets are uniform over
    # the vocabulary. erf is libm's, called per value.
    erf = np.frompyfunc(math.erf, 1, 1)
    erf_den = np.linalg.norm(b_head, axis=1) * math.sqrt(2.0)
    reps = -(-cfg.seq_len // tc)  # ceil

    # One row of draws per record: [z_a | z_b | noise_a | noise_b]. A
    # record draws z_a, then z_b if noisy, then the noise for a and for b,
    # so a noisy record fills its row in one call. A good or clean record
    # has one latent: it fills the row from z_b on, then copies z_b to z_a.
    draws = np.empty((_BLOCK, 2 * k + d_a + cfg.d_b))
    streams = Substreams(cfg.seed, "record")
    for start in range(0, cfg.n_pairs, _BLOCK):
        stop = min(start + _BLOCK, cfg.n_pairs)
        block = draws[: stop - start]
        block_labels = labels[start:stop]
        x_a = np.empty((stop - start, d_a))
        x_b = np.empty((stop - start, cfg.d_b))
        tokens = np.empty((stop - start, cfg.seq_len), dtype=np.int64)
        noisy = block_labels == Label.NOISY
        for i, (row, is_noisy) in enumerate(zip(block, noisy.tolist())):
            rng = streams.at(start + i)
            if is_noisy:
                rng.standard_normal(out=row)
                tokens[i] = rng.integers(0, cfg.vocab, size=cfg.seq_len)
            else:
                rng.standard_normal(out=row[k:])
        shared = ~noisy
        block[shared, :k] = block[shared, k : 2 * k]
        block[:, 2 * k :] *= noise[block_labels][:, None]
        # A stacked matmul runs one gemv per record, as the per-record
        # product did; a 2-D product changes the last bits.
        z = block[:, : 2 * k].reshape(-1, 2, k, 1)
        np.matmul(a_mix, z[:, 0], out=x_a[:, :, None])
        np.matmul(b_mix, z[:, 1], out=x_b[:, :, None])
        x_a += block[:, 2 * k : 2 * k + d_a]
        x_b += block[:, 2 * k + d_a :]
        # Cycle a few quantized coordinates across the sequence; the
        # redundancy is what makes masked positions recoverable.
        u = 0.5 * (1.0 + erf((b_head @ z[shared, 1])[..., 0] / erf_den).astype(float))
        base = np.minimum((u * cfg.vocab).astype(np.int64), cfg.vocab - 1)
        tokens[shared] = np.tile(base, reps)[:, : cfg.seq_len]
        yield Dataset(
            ids=np.arange(start, stop, dtype=np.int64),
            labels=block_labels,
            x_a=x_a,
            x_b=x_b,
            tokens=tokens,
            config=cfg,
        )


def generate_rows(cfg: GenConfig, row_sets: Sequence[np.ndarray]) -> list[Dataset]:
    """One ``Dataset`` per array of sorted rows: those rows of ``generate_dataset(cfg)``, filled from one pass.

    Only the requested rows and one generated block are held, never the whole dataset.
    """
    parts = [_unfilled(cfg, rows) for rows in row_sets]
    for block in generate_blocks(cfg):
        for part in parts:
            _fill(part, block)
    return parts


def generate_row_blocks(cfg: GenConfig, rows: np.ndarray, blocks: Sequence[slice]) -> Iterator[Dataset]:
    """For each slice of ``blocks`` in turn, a ``Dataset`` of those entries of ``rows``, from one generation pass.

    ``rows`` is sorted and ``blocks`` cover it in order, as ``row_blocks``
    gives them. One block of the requested rows and one generated block
    are held at a time.
    """
    generated, block = generate_blocks(cfg), None
    for entries in blocks:
        part = _unfilled(cfg, rows[entries])
        if block is not None:
            _fill(part, block)
        while block is None or block.ids[-1] < part.ids[-1]:
            block = next(generated)
            _fill(part, block)
        yield part
        del part  # before the next block of rows exists


def _unfilled(cfg: GenConfig, rows: np.ndarray) -> Dataset:
    """A ``Dataset`` with the ids ``rows`` and every other column left to ``_fill``."""
    return Dataset(
        ids=np.asarray(rows, dtype=np.int64),
        labels=np.empty(len(rows), dtype=np.int8),
        x_a=np.empty((len(rows), cfg.d_a)),
        x_b=np.empty((len(rows), cfg.d_b)),
        tokens=np.empty((len(rows), cfg.seq_len), dtype=np.int64),
        config=cfg,
    )


def _fill(part: Dataset, block: Dataset) -> None:
    """Copy the rows of the generated ``block`` that ``part`` holds into ``part``."""
    lo, hi = np.searchsorted(part.ids, (block.ids[0], block.ids[-1] + 1))
    picked = part.ids[lo:hi] - block.ids[0]
    part.labels[lo:hi], part.tokens[lo:hi] = block.labels[picked], block.tokens[picked]
    part.x_a[lo:hi], part.x_b[lo:hi] = block.x_a[picked], block.x_b[picked]


def generate_dataset(cfg: GenConfig) -> Dataset:
    """Deterministically generate ``cfg.n_pairs`` labeled pairs: the blocks of ``generate_blocks``, joined."""
    return generate_rows(cfg, [np.arange(cfg.n_pairs)])[0]


def split_rows(labels: np.ndarray, n_val: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (training, validation) rows: ``n_val`` good-labeled rows drawn by ``seed`` validate, the rest train."""
    good_rows = np.flatnonzero(labels == Label.GOOD)
    if n_val > good_rows.size:
        raise ConfigError(
            f"requested {n_val} validation pairs, only {good_rows.size} good pairs available"
        )
    val_rows = np.sort(substream(seed, "split").permutation(good_rows)[:n_val])
    train = np.ones(len(labels), dtype=bool)
    train[val_rows] = False
    return np.flatnonzero(train), val_rows


def split_validation(ds: Dataset, n_val: int, seed: int) -> tuple[Dataset, Dataset]:
    """Carve a validation set out of the good-labeled pairs only."""
    train_rows, val_rows = split_rows(ds.labels, n_val, seed)
    return ds.take_rows(train_rows), ds.take_rows(val_rows)


def write_manifest_lines(f: IO[str], ds: Dataset) -> None:
    """Write one JSON object per row of ``ds`` to ``f``: {id, oracle_label, tokens}.

    Each line has the bytes of ``json.dumps(row, sort_keys=True)``, built
    directly from the columns, one string per block of rows: ``str`` of a
    list of Python ints is the ``[a, b, ...]`` that ``json.dumps`` writes.
    """
    for start in range(0, len(ds), _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = zip(ds.ids[block].tolist(), ds.labels[block].tolist(), ds.tokens[block].tolist())
        f.write("".join(
            f'{{"id": {rid}, "oracle_label": "{LABEL_TAGS[lab]}", "tokens": {toks}}}\n' for rid, lab, toks in rows
        ))


def write_manifest(path: str | Path, ds: Dataset) -> None:
    """Write the manifest of ``ds`` to ``path``; see ``write_manifest_lines``."""
    with atomic_open(path, "w", encoding="utf-8") as f:
        write_manifest_lines(f, ds)


_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _integer_arrays(ids: Sequence, tokens: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` and ``tokens`` as 1-D and 2-D arrays; a ValueError says why they are not integer arrays."""
    id_col, token_rows = np.array(ids), np.array(tokens)  # ragged tokens raise ValueError
    for name, col, ndim in (("ids", id_col, 1), ("tokens", token_rows, 2)):
        if col.ndim != ndim or not np.issubdtype(col.dtype, np.signedinteger):
            raise ValueError(f"{name} read as {col.ndim}-D {col.dtype}")
    return id_col, token_rows


def _parsed_block(lines: list[str]) -> _Block | None:
    """(ids, labels, tokens) of a block of manifest lines from one ``json.loads``; None where a check fails.

    It never raises, and what it returns is exactly what ``_checked_block``
    returns. Each row needs four strings (three keys and a label), so
    8 quotes a line leave room for no other key or string, and none of
    those holds a brace or a newline. Ids and tokens that read as integer
    arrays hold no object, so every ``}`` closes a row. A ``}`` and the
    newline before every joining comma put each comma between rows; with
    as many rows as lines, each line holds the one row that parsing it
    alone gives. With no ``true`` or ``false``, no boolean reads as 1 or 0.
    """
    text = "[" + ",".join(lines) + "]"
    if (text.count('"') != 8 * len(lines) or text.count("}\n,{") != len(lines) - 1
            or "true" in text or "false" in text):
        return None
    try:
        rows = json.loads(text)
        ids, tags, tokens = zip(*map(itemgetter("id", "oracle_label", "tokens"), rows))
        labels = np.array([LABEL_TAGS.index(tag) for tag in tags], dtype=np.int8)
        id_col, token_rows = _integer_arrays(ids, tokens)
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    return (id_col, labels, token_rows) if len(rows) == len(lines) else None


def _checked_block(path: str | Path, first: int, lines: list[str]) -> _Block:
    """(ids, labels, tokens) of a block of manifest lines, parsed one by one; the error names the bad line."""
    ids, labels, tokens = [], [], []
    for lineno, line in enumerate(lines, start=first):
        try:
            row = json.loads(line)
            if isinstance(row["id"], bool):  # numpy would read true as 1
                raise TypeError("id is a JSON boolean")
            ids.append(row["id"])
            labels.append(LABEL_TAGS.index(row["oracle_label"]))
            tokens.append(row["tokens"])
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            raise FormatError(f"{path}:{lineno}: malformed manifest line ({e!r})") from e
    try:
        id_col, token_rows = _integer_arrays(ids, tokens)
    except ValueError as e:
        raise FormatError(f"{path}: manifest ids or tokens are not integer arrays ({e})") from e
    if bool in set(map(type, chain.from_iterable(tokens))):  # numpy reads false beside ints as 0
        raise FormatError(f"{path}: manifest ids or tokens are not integer arrays (tokens hold JSON booleans)")
    return id_col, np.array(labels, dtype=np.int8), token_rows


def _manifest_blocks(path: str | Path) -> Iterator[_Block]:
    """(ids, labels, tokens) arrays of each block of ``_BLOCK`` manifest lines.

    Every block passes the checks a whole manifest must pass: labels are
    ``LABEL_TAGS`` exactly, ids and tokens read as 1-D and 2-D integer
    arrays. Across blocks the tokens must keep one width. A block is
    parsed at once; one that fails any check there is parsed again line
    by line, so the error names the line. Bytes that are not UTF-8 are
    refused with the file's name alone: the text decoder reads ahead of
    the lines.
    """
    width = None
    with open(path, encoding="utf-8") as f:
        for first in count(1, _BLOCK):
            try:
                lines = list(islice(f, _BLOCK))
            except UnicodeDecodeError as e:
                raise FormatError(f"{path}: manifest is not UTF-8 ({e})") from e
            if not lines:
                return
            ids, labels, tokens = _parsed_block(lines) or _checked_block(path, first, lines)
            if width is None:
                width = tokens.shape[1]
            elif tokens.shape[1] != width:
                raise FormatError(
                    f"{path}:{first}: manifest ids or tokens are not integer arrays"
                    f" (tokens {tokens.shape[1]} wide from this line, {width} before)"
                )
            yield ids.astype(np.int64, copy=False), labels, tokens.astype(np.int64, copy=False)


def read_manifest(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (ids, labels, tokens) arrays from a manifest file, checked as ``_manifest_blocks`` checks it."""
    blocks = list(_manifest_blocks(path))
    if not blocks:
        return np.zeros(0, np.int64), np.zeros(0, np.int8), np.zeros((0, 0), np.int64)
    ids, labels, tokens = zip(*blocks)
    return np.concatenate(ids), np.concatenate(labels), np.concatenate(tokens)


def read_manifest_labels(path: str | Path) -> np.ndarray:
    """The label codes of a manifest, every line checked as ``read_manifest`` checks it.

    Each block's ids and tokens are dropped once checked, so only the
    label column is held.
    """
    return np.concatenate([np.zeros(0, np.int8), *(labels for _, labels, _ in _manifest_blocks(path))])


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header line and then one CSV line per row."""
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
