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


def test_live_substreams_on_two_streams_keep_their_own_state():
    # Re-keying one instance leaves the other's generator and fresh state alone,
    # also right after a draw that left a cached 32-bit half behind.
    record, mask = Substreams(3, "record"), Substreams(5, "mask")
    for r, m in ((7, 2), (0, 7), (2**48 - 1, 0), (7, 7), (1, 2**48 - 1), (2, 1)):
        record.at(r).integers(0, 100, size=3)
        mask.at(m).integers(0, 100, size=1)
        rec, msk = record.at(r), mask.at(m)
        fresh_rec, fresh_msk = substream(3, "record", r), substream(5, "mask", m)
        for got, want in ((msk, fresh_msk), (rec, fresh_rec), (msk, fresh_msk), (rec, fresh_rec)):
            np.testing.assert_array_equal(_draws(got), _draws(want))


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


def _mask_draws(rng):
    # PretrainRun's masked-token step: rows to mask, then mask_batch on a 2-D token block.
    shape = (40, 16)
    return [rng.integers(0, 9500, size=40), rng.random(shape), rng.random(shape), rng.integers(0, 63, size=shape)]


@pytest.mark.parametrize(
    "stream, draws",
    [
        ("teacher", lambda rng: [rng.integers(0, 2000, size=128)]),
        ("distill", lambda rng: [rng.integers(0, 4096, size=256)]),
        ("mask", _mask_draws),
    ],
)
def test_per_step_streams_match_fresh_substreams(stream, draws):
    streams = Substreams(11, stream)
    for step in (5, 0, 1999, 3, 5, 1, 2**48 - 1):
        for got, want in zip(draws(streams.at(step)), draws(substream(11, stream, step)), strict=True):
            np.testing.assert_array_equal(got, want)
