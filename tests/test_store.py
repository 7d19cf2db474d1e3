import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairsieve import store
from pairsieve.errors import DimMismatch, FormatError
from pairsieve.store import HEADER_SIZE, StoreHandle, appending_store, write_store


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


# Each turns one store of 3 rows of 2 values into a file that StoreHandle refuses, with its message.
_DAMAGE = {
    "truncated-header": (lambda blob: blob[: HEADER_SIZE - 1], "truncated header"),
    "bad-magic": (lambda blob: b"NOPE" + blob[4:], "bad magic"),
    "bad-version": (lambda blob: blob[:4] + (2).to_bytes(4, "little") + blob[8:], "unsupported version 2"),
    "size-mismatch": (lambda blob: blob[:-8], "header implies"),
}


@pytest.mark.parametrize("damage, message", _DAMAGE.values(), ids=_DAMAGE.keys())
def test_refused_open_closes_its_file(tmp_path, monkeypatch, damage, message):
    path = tmp_path / "s.ecst"
    write_store(path, np.ones((3, 2)))
    path.write_bytes(damage(path.read_bytes()))
    opened = []

    def spy(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(store, "open", spy, raising=False)
    with pytest.raises(FormatError, match=message):
        StoreHandle(path)
    assert len(opened) == 1 and opened[0].closed


def test_read_all_short_read_detected(tmp_path):
    path = tmp_path / "t.ecst"
    write_store(path, np.ones((2000, 3)))  # larger than one read buffer
    with StoreHandle(path) as h:
        with open(path, "r+b") as f:
            f.truncate(HEADER_SIZE + 8)  # shrunk after the size check at open
        with pytest.raises(FormatError):
            h.read_rows(np.arange(len(h)))


def test_appended_blocks_equal_one_write(tmp_path):
    rows = np.random.default_rng(2).standard_normal((10, 3))
    with appending_store(tmp_path / "a.ecst", 3, 10) as append:
        for start in range(0, 10, 4):
            append(rows[start : start + 4])
    write_store(tmp_path / "w.ecst", rows)
    assert (tmp_path / "a.ecst").read_bytes() == (tmp_path / "w.ecst").read_bytes()


@pytest.mark.parametrize("blocks", [[3], [3, 3, 3, 3], [2, 2, 2, 2, 2, 2]], ids=["short", "over-mid-block", "over-when-full"])
def test_appending_other_than_the_header_count_keeps_the_old_file(tmp_path, blocks):
    path = tmp_path / "s.ecst"
    write_store(path, np.ones((2, 2)))
    before = path.read_bytes()
    with pytest.raises(DimMismatch, match="header says 10"):
        with appending_store(path, 2, 10) as append:
            for n in blocks:
                append(np.zeros((n, 2)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.ecst"]


@pytest.mark.parametrize("window", [1, 3, 7, 39, 40, 1024, 4096])
def test_read_rows_equals_read_all_at_rows(tmp_path, monkeypatch, window):
    monkeypatch.setattr(store, "_READ_BLOCK", window)
    rng = np.random.default_rng(window)
    data = rng.standard_normal((40, 5))
    path = tmp_path / "r.ecst"
    write_store(path, data)
    with StoreHandle(path) as h:
        for rows in (np.arange(0), np.arange(40), np.array([0, 39]), np.sort(rng.choice(40, 13, replace=False))):
            got = h.read_rows(rows)
            assert got.shape == (len(rows), 5)
            assert got.tobytes() == data[rows].tobytes()


def test_read_rows_rejects_rows_out_of_range_or_order(tmp_path):
    path = tmp_path / "r.ecst"
    write_store(path, np.ones((5, 2)))
    with StoreHandle(path) as h:
        for rows in ([0, 5], [-1, 2]):
            with pytest.raises(IndexError):
                h.read_rows(np.array(rows))
        for rows in ([2, 1], [1, 1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                h.read_rows(np.array(rows))


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
        got = h.read_rows(np.arange(len(h)))
    assert got.tobytes() == rows.tobytes()
