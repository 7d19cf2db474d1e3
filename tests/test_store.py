import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairsieve.errors import FormatError
from pairsieve.store import HEADER_SIZE, StoreHandle, write_store


def test_empty_store(tmp_path):
    path = tmp_path / "empty.ecst"
    header = write_store(path, np.empty((0, 0)))
    assert header.count == 0
    assert path.stat().st_size == HEADER_SIZE
    with StoreHandle(path) as h:
        assert len(h) == 0
        with pytest.raises(IndexError):
            h.read_at(0)


def test_size_arithmetic(tmp_path):
    path = tmp_path / "s.ecst"
    write_store(path, np.zeros((10, 16)))
    assert path.stat().st_size == HEADER_SIZE + 10 * 16 * 8


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((1000, 24))
    rows[0, 0] = -0.0
    rows[1, 1] = 0.0
    path = tmp_path / "r.ecst"
    write_store(path, rows)
    with StoreHandle(path) as h:
        got = np.vstack([h.read_at(i) for i in range(len(h))])
    assert got.tobytes() == rows.tobytes()  # includes signed zeros


def test_random_order_equals_sequential(tmp_path):
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((50, 4))
    path = tmp_path / "o.ecst"
    write_store(path, rows)
    order = rng.permutation(50)
    with StoreHandle(path) as h:
        for i in order:
            np.testing.assert_array_equal(h.read_at(int(i)), rows[i])


def test_read_out_of_range(tmp_path):
    path = tmp_path / "x.ecst"
    write_store(path, np.ones((3, 2)))
    with StoreHandle(path) as h:
        with pytest.raises(IndexError):
            h.read_at(3)
        with pytest.raises(IndexError):
            h.read_at(-1)


def test_header_corruption_detected(tmp_path):
    path = tmp_path / "c.ecst"
    write_store(path, np.ones((3, 2)))
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    bad = tmp_path / "bad.ecst"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        StoreHandle(bad)


def test_payload_size_mismatch_detected(tmp_path):
    path = tmp_path / "t.ecst"
    write_store(path, np.ones((3, 2)))
    truncated = tmp_path / "trunc.ecst"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        StoreHandle(truncated)


def test_read_all_short_read_detected(tmp_path):
    path = tmp_path / "t.ecst"
    write_store(path, np.ones((2000, 3)))  # larger than one read buffer
    with StoreHandle(path) as h:
        with open(path, "r+b") as f:
            f.truncate(HEADER_SIZE + 8)  # shrunk after the size check at open
        with pytest.raises(FormatError):
            h.read_all()


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 20), st.integers(1, 8)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
)
@settings(max_examples=30)
def test_round_trip_property(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("store") / "p.ecst"
    header = write_store(path, rows)
    assert header.count == rows.shape[0]
    assert header.dim == rows.shape[1]
    with StoreHandle(path) as h:
        got = h.read_all()
    assert got.tobytes() == rows.tobytes()
