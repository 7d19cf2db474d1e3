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
from typing import IO, Iterator

import numpy as np

from .errors import DimMismatch, FormatError

STORE_MAGIC = b"ECST"
STORE_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")
HEADER_SIZE = _HEADER.size  # 20 bytes


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


def write_store(path: str | Path, embeddings: np.ndarray | list[np.ndarray]) -> StoreHeader:
    """Write rows to ``path``; empty input produces a header-only file."""
    if isinstance(embeddings, list):
        if embeddings and len({e.shape for e in embeddings}) != 1:
            raise DimMismatch("store rows must share one dimension")
        rows = np.asarray(embeddings, dtype=np.float64)
    else:
        rows = np.asarray(embeddings, dtype=np.float64)
    if rows.size == 0:
        count, dim = 0, (rows.shape[1] if rows.ndim == 2 else 0)
    else:
        if rows.ndim != 2:
            raise DimMismatch(f"expected 2-D row data, got shape {rows.shape}")
        count, dim = rows.shape
    header = StoreHeader(STORE_VERSION, dim, count)
    with atomic_open(path) as f:
        f.write(_HEADER.pack(STORE_MAGIC, header.version, dim, count))
        if count:
            f.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())
        f.flush()
        os.fsync(f.fileno())
    return header


class StoreHandle:
    """Read handle over a store file; usable as a context manager."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._f = open(self.path, "rb")
        blob = self._f.read(HEADER_SIZE)
        if len(blob) != HEADER_SIZE:
            self._f.close()
            raise FormatError(f"{path}: truncated header")
        magic, version, dim, count = _HEADER.unpack(blob)
        if magic != STORE_MAGIC:
            self._f.close()
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != STORE_VERSION:
            self._f.close()
            raise FormatError(f"{path}: unsupported version {version}")
        size = self.path.stat().st_size
        expected = HEADER_SIZE + count * dim * 8
        if size != expected:
            self._f.close()
            raise FormatError(f"{path}: size {size}, header implies {expected}")
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

    @property
    def dim(self) -> int:
        return self.header.dim

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

    def read_all(self) -> np.ndarray:
        """Return every row, read with one call into a preallocated array."""
        out = np.empty((self.header.count, self.header.dim), dtype="<f8")
        self._f.seek(HEADER_SIZE)
        if self._f.readinto(out) != out.nbytes:
            raise FormatError(f"{self.path}: short read")
        return out
