import numpy as np
import pytest

from pairsieve.rng import Substreams, substream


def _draws(rng):
    # An odd count of small integers leaves a cached 32-bit half behind.
    return np.concatenate([rng.standard_normal(3), rng.integers(0, 100, size=3), rng.random(2)])


@pytest.mark.parametrize("seed", [0, -5, 2**64 + 9])
def test_substreams_match_fresh_substreams(seed):
    streams = Substreams(seed, "record")
    for index in (7, 3, 2**48 - 1, 0, 7, 3, 1):
        rng = streams.at(index)
        np.testing.assert_array_equal(_draws(rng), _draws(substream(seed, "record", index)))
    # A record left after an integers draw does not leak into the next one.
    streams.at(4).integers(0, 64, size=5)
    np.testing.assert_array_equal(
        streams.at(4).standard_normal(6), substream(seed, "record", 4).standard_normal(6)
    )
    np.testing.assert_array_equal(
        Substreams(seed, "mask").at(3).standard_normal(4), substream(seed, "mask", 3).standard_normal(4)
    )


def test_substreams_reject_what_substream_rejects():
    for make in (lambda: substream(0, "recrod", 1), lambda: Substreams(0, "recrod")):
        with pytest.raises(KeyError, match="unknown rng stream 'recrod'"):
            make()
    streams = Substreams(0, "record")
    for index in (-1, 2**48):
        for make in (lambda: substream(0, "record", index), lambda: streams.at(index)):
            with pytest.raises(ValueError, match=f"stream index out of range: {index}"):
                make()
    assert streams.at(5).standard_normal() == substream(0, "record", 5).standard_normal()
