"""Fixed-width binary vector store with O(1) random access.

Layout: a 20-byte header (magic "ECST", version u32, dim u32, count u64,
all little-endian) followed by count rows of dim float64 values. Rows are
addressed by byte offset, so reads never scan the file.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import DimMismatch, FormatError

STORE_MAGIC = b"ECST"
STORE_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
HEADER_SIZE = _HEADER.size  # 20 bytes
# Rows per read of ``StoreHandle.read_rows``: bounds its window buffer. At gen_eval's 50k/5000
# eval, 1024 gave the lowest peak RSS; 4096 and 2048 read 1.6 and 0.5 MiB higher, 512 and 256 no lower.
_READ_BLOCK = 1024


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb", **kwargs) -> Iterator[IO]:
    """Open a sibling temporary file for writing; a clean exit moves it onto ``path``.

    Readers of ``path`` see the old file or the whole new one, never a
    part. On an error the temporary file is removed and ``path`` is left
    as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class StoreHeader:
    version: int
    dim: int
    count: int


@contextmanager
def appending_store(path: str | Path, dim: int, count: int) -> Iterator[Callable[[np.ndarray], None]]:
    """Write a store of ``count`` rows of ``dim`` values, appended in blocks through the yielded function.

    The header is written first, from ``count``. As with ``atomic_open``,
    ``path`` gets the new file only on a clean exit, and only when exactly
    ``count`` rows were appended; otherwise it is left as it was.
    """
    with atomic_open(path) as f:
        f.write(_HEADER.pack(STORE_MAGIC, STORE_VERSION, dim, count))
        written = 0

        def append(rows: np.ndarray) -> None:
            nonlocal written
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 2 or rows.shape[1] != dim:
                raise DimMismatch(f"expected rows of {dim} values, got shape {rows.shape}")
            if written + len(rows) > count:
                raise DimMismatch(f"{path}: {written + len(rows)} rows appended, header says {count}")
            f.write(memoryview(np.ascontiguousarray(rows, dtype="<f8")))  # the rows' own buffer, not a copy
            written += len(rows)

        yield append
        if written != count:
            raise DimMismatch(f"{path}: {written} rows appended, header says {count}")
        f.flush()
        os.fsync(f.fileno())


def write_store(path: str | Path, embeddings: np.ndarray) -> StoreHeader:
    """Write the rows of a 2-D array to ``path``; an array with no rows gives a header-only file."""
    rows = np.asarray(embeddings, dtype=np.float64)
    if rows.ndim != 2:
        raise DimMismatch(f"expected 2-D row data, got shape {rows.shape}")
    count, dim = rows.shape
    with appending_store(path, dim, count) as append:
        append(rows)
    return StoreHeader(STORE_VERSION, dim, count)


class StoreHandle:
    """Read handle over a store file; usable as a context manager."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._f = open(self.path, "rb")
        try:
            blob = self._f.read(HEADER_SIZE)
            if len(blob) != HEADER_SIZE:
                raise FormatError(f"{path}: truncated header")
            magic, version, dim, count = _HEADER.unpack(blob)
            if magic != STORE_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            if version != STORE_VERSION:
                raise FormatError(f"{path}: unsupported version {version}")
            size = self.path.stat().st_size
            expected = HEADER_SIZE + count * dim * 8
            if size != expected:
                raise FormatError(f"{path}: size {size}, header implies {expected}")
        except BaseException:
            self._f.close()
            raise
        self.header = StoreHeader(version, dim, count)

    def __enter__(self) -> "StoreHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()

    def __len__(self) -> int:
        return self.header.count

    def read_at(self, index: int) -> np.ndarray:
        """Return row ``index`` exactly as written."""
        if not 0 <= index < self.header.count:
            raise IndexError(f"row {index} out of range ({self.header.count} rows)")
        row_bytes = self.header.dim * 8
        self._f.seek(HEADER_SIZE + index * row_bytes)
        blob = self._f.read(row_bytes)
        if len(blob) != row_bytes:
            raise FormatError(f"{self.path}: short read at row {index}")
        return np.frombuffer(blob, dtype="<f8").copy()

    def read_rows(self, rows: np.ndarray) -> np.ndarray:
        """Return the strictly increasing ``rows``, reading one window of at most ``_READ_BLOCK`` rows at a time.

        Each read starts at the next wanted row and covers every wanted row
        within the window, so only those windows of the file are read. The
        window is no wider than the span of ``rows``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if np.any(np.diff(rows) <= 0):
            raise ValueError("rows must be strictly increasing")
        if rows.size and (rows[0] < 0 or rows[-1] >= self.header.count):
            raise IndexError(f"rows {rows[0]}..{rows[-1]} out of range ({self.header.count} rows)")
        out = np.empty((rows.size, self.header.dim), dtype="<f8")
        if not rows.size:
            return out
        window = np.empty((min(_READ_BLOCK, int(rows[-1] - rows[0]) + 1), self.header.dim), dtype="<f8")
        i = 0
        while i < rows.size:
            lo = int(rows[i])
            j = int(np.searchsorted(rows, lo + _READ_BLOCK))
            buf = window[: int(rows[j - 1]) - lo + 1]
            self._f.seek(HEADER_SIZE + lo * self.header.dim * 8)
            if self._f.readinto(buf) != buf.nbytes:
                raise FormatError(f"{self.path}: short read at row {lo}")
            out[i:j] = buf[rows[i:j] - lo]
            i = j
        return out
