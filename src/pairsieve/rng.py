"""Named counter-based random substreams.

Every source of randomness in the package flows from one master seed
through a named substream, so results are reproducible regardless of
iteration order, thread count, or which pipeline stages run.
"""

from __future__ import annotations

import numpy as np

# Substream tags. Each (seed, stream, index) triple keys an independent
# Philox counter stream; index typically carries a record id, epoch, or
# step number.
_STREAMS = {
    "mixing": 1,
    "labels": 2,
    "record": 3,
    "split": 4,
    "init": 6,
    "view": 7,
    "teacher": 8,
    "distill": 9,
    "batch": 10,
    "mask": 11,
    "bench": 12,
}

_INDEX_BITS = 48
_WORD = (1 << 64) - 1


def _key(seed: int, stream: str, index: int) -> int:
    """The 128-bit Philox key of the (seed, stream, index) substream."""
    if stream not in _STREAMS:
        raise KeyError(f"unknown rng stream {stream!r}")
    if not 0 <= index < (1 << _INDEX_BITS):
        raise ValueError(f"stream index out of range: {index}")
    return ((int(seed) & _WORD) << 64) | (_STREAMS[stream] << _INDEX_BITS) | index


def substream(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Return a Generator for the (seed, stream, index) substream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, index)))


class Substreams:
    """One generator re-keyed in place to each (seed, stream, index) substream.

    Philox is counter-based: with the key set and the counter, the output
    buffer and the cached 32-bit half reset, its draws are exactly those of
    a freshly built ``substream(seed, stream, index)``. Re-keying skips the
    construction, which costs more than a few dozen draws.
    """

    def __init__(self, seed: int, stream: str):
        self._seed, self._stream = seed, stream
        self._bits = np.random.Philox(key=_key(seed, stream, 0))
        self._generator = np.random.Generator(self._bits)
        # A fresh generator's state: counter zero, buffer empty, no cached
        # half. Held as Python ints, which the state setter reads faster
        # than numpy arrays; each instance owns its dicts.
        fresh = self._bits.state
        self._fresh = {**fresh, "state": {k: v.tolist() for k, v in fresh["state"].items()},
                       "buffer": fresh["buffer"].tolist()}

    def at(self, index: int) -> np.random.Generator:
        """Return the shared Generator, restarted at substream ``index``.

        A generator returned earlier is the same object, so its old stream ends here.
        """
        key = _key(self._seed, self._stream, index)
        self._fresh["state"]["key"] = (key & _WORD, key >> 64)
        self._bits.state = self._fresh
        return self._generator
