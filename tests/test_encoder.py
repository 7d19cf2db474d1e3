import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsieve.encoder import (
    EncoderParams,
    cosine_warmup_lr,
    encode_backward,
    encode_batch,
    init_params,
    load_params,
    row_blocks,
    save_params,
    sgd_step,
)
from pairsieve.errors import CacheMismatch, DimMismatch, FormatError, NonFiniteLoss, ZeroNorm
from pairsieve.numerics import finite_diff_check
from pairsieve.rng import substream


def _zero_grads(p):
    return EncoderParams(*(np.zeros_like(a) for a in p.arrays()))


def _rebuild(template, arrays):
    return EncoderParams(
        np.asarray(arrays[0]).reshape(template.w1.shape),
        np.asarray(arrays[1]),
        np.asarray(arrays[2]).reshape(template.w2.shape),
        np.asarray(arrays[3]),
    )


def test_init_deterministic():
    a = init_params(7, 8, 4, 3)
    b = init_params(7, 8, 4, 3)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)


def test_init_param_count():
    p = init_params(0, 64, 32, 16)
    assert sum(a.size for a in p.arrays()) == 64 * 32 + 32 + 32 * 16 + 16 == 2608


def test_init_weight_std_matches_uniform():
    p = init_params(3, 512, 600, 16)
    # uniform(-a, a) has std a/sqrt(3)
    expected = (1.0 / math.sqrt(512)) / math.sqrt(3.0)
    assert abs(p.w1.std() - expected) / expected < 0.2
    assert p.b1.sum() == 0.0 and p.b2.sum() == 0.0


def test_encode_unit_norm():
    p = init_params(1, 10, 6, 4)
    x = substream(2, "init", 5).standard_normal((7, 10))
    emb, _ = encode_batch(p, x)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-10)


def test_encode_zero_params_raises():
    p = EncoderParams(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ZeroNorm):
        encode_batch(p, np.ones(4))
    with pytest.raises(ZeroNorm):
        encode_batch(p, substream(3, "init", 6).standard_normal((5, 4)))


def test_encode_dim_mismatch():
    p = init_params(1, 4, 3, 2)
    with pytest.raises(DimMismatch):
        encode_batch(p, np.ones(5))


@pytest.mark.parametrize(
    "w2_scale, bad, fine, error",
    [
        (1.0, {2: "nan"}, [0, 1, 3], NonFiniteLoss),
        # tanh bounds the hidden layer, so a huge w2 overflows every squared norm but the tiny row's.
        (1e200, {0: "tiny"}, [0], NonFiniteLoss),
        (1.0, {3: "zero"}, [0, 1, 2], ZeroNorm),
        # The non-finite check comes first, whichever row comes first.
        (1.0, {0: "zero", 3: "nan"}, [1, 2], NonFiniteLoss),
    ],
)
def test_encode_bad_rows_pick_the_error(w2_scale, bad, fine, error):
    w = init_params(3, 6, 5, 3)
    p = EncoderParams(w.w1, w.b1, w.w2 * w2_scale, w.b2)  # zero biases: a zero row embeds to zero
    x = substream(3, "init", 4).standard_normal((4, 6))
    for row, kind in bad.items():
        x[row] *= {"nan": np.nan, "zero": 0.0, "tiny": 1e-250}[kind]
    with np.errstate(over="ignore"), pytest.raises(error):
        encode_batch(p, x)
    encode_batch(p, x[fine])


def test_encode_and_backward_read_only_inputs_untouched():
    p = init_params(6, 6, 5, 3)
    rng = substream(6, "init", 9)
    x = rng.standard_normal((4, 6))
    upstream = rng.standard_normal((4, 3))
    want_emb, want_cache = encode_batch(p, x.copy())
    want_grads = encode_backward(p, want_cache, upstream.copy())
    for a in (x, upstream, *p.arrays()):
        a.flags.writeable = False
    before = [a.copy() for a in (x, upstream, *p.arrays())]

    emb, cache = encode_batch(p, x)
    grads = encode_backward(p, cache, upstream)

    for a, b in zip((x, upstream, *p.arrays()), before):
        assert a.tobytes() == b.tobytes()
    assert emb.tobytes() == want_emb.tobytes()
    for a, b in zip(grads.arrays(), want_grads.arrays()):
        assert a.tobytes() == b.tobytes()
    stepped = sgd_step(p, grads, lr=0.1, weight_decay=1e-3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(p.arrays(), before[2:]))
    assert not any(np.shares_memory(a, b) for a in stepped.arrays() for b in (*p.arrays(), *grads.arrays()))


def test_backward_zero_upstream():
    p = init_params(4, 6, 5, 3)
    x = substream(4, "init", 1).standard_normal((2, 6))
    _, cache = encode_batch(p, x)
    g = encode_backward(p, cache, np.zeros((2, 3)))
    for arr in g.arrays():
        assert not arr.any()


def test_backward_parallel_upstream_killed_by_projection():
    # Upstream gradient parallel to the embedding is in the normalization
    # null space, so nothing propagates.
    p = init_params(4, 6, 5, 3)
    x = substream(4, "init", 2).standard_normal((1, 6))
    emb, cache = encode_batch(p, x)
    g = encode_backward(p, cache, 2.5 * emb)
    worst = max(np.abs(arr).max() for arr in g.arrays())
    assert worst <= 1e-8


def test_backward_stale_cache():
    p = init_params(4, 6, 5, 3)
    q = init_params(5, 6, 5, 3)
    x = np.ones((1, 6))
    _, cache = encode_batch(p, x)
    with pytest.raises(CacheMismatch):
        encode_backward(q, cache, np.ones((1, 3)))


def test_backward_matches_finite_differences():
    p = init_params(11, 6, 5, 4)
    rng = substream(11, "init", 3)
    x = rng.standard_normal((3, 6))
    t = rng.standard_normal((3, 4))

    def loss_fn(arrays):
        q = _rebuild(p, arrays)
        emb, cache = encode_batch(q, x)
        grads = encode_backward(q, cache, t)
        return float(np.sum(emb * t)), grads.arrays()

    report = finite_diff_check(loss_fn, p.arrays())
    assert report.max_rel_err <= 1e-4


def test_sgd_step_basics():
    p = init_params(1, 3, 2, 2)
    unchanged = sgd_step(p, _zero_grads(p), lr=0.1, weight_decay=0.0)
    for a, b in zip(p.arrays(), unchanged.arrays()):
        np.testing.assert_array_equal(a, b)

    one = EncoderParams(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1))
    g = _zero_grads(one)
    g.w1[0, 0] = 1.0
    stepped = sgd_step(one, g, lr=0.1)
    assert stepped.w1[0, 0] == pytest.approx(0.9)


def test_sgd_weight_decay_skips_biases():
    p = init_params(2, 3, 2, 2)
    p.b1[:] = 1.0
    stepped = sgd_step(p, _zero_grads(p), lr=0.5, weight_decay=1e-4)
    np.testing.assert_array_equal(stepped.b1, p.b1)
    assert np.all(np.abs(stepped.w1) < np.abs(p.w1))


def test_descent_sanity_majority():
    # A tiny step along the negative gradient must not increase the loss.
    successes = 0
    for seed in range(5):
        p = init_params(seed, 8, 6, 4)
        rng = substream(seed, "init", 9)
        x = rng.standard_normal((5, 8))
        t = rng.standard_normal((5, 4))

        def loss_of(q):
            emb, cache = encode_batch(q, x)
            return float(np.sum((emb - t) ** 2)), cache, emb

        before, cache, emb = loss_of(p)
        grads = encode_backward(p, cache, 2.0 * (emb - t))
        after, _, _ = loss_of(sgd_step(p, grads, lr=1e-6))
        successes += after - before <= 1e-8
    assert successes >= 3


def test_cosine_warmup_schedule():
    assert cosine_warmup_lr(0, 10, 100, 1.0) == 0.0
    assert cosine_warmup_lr(10, 10, 100, 1.0) == pytest.approx(1.0)
    # Direct formula evaluation at the midpoint of the decay span.
    step = 55
    frac = (step - 10) / (100 - 10)
    assert cosine_warmup_lr(step, 10, 100, 1.0) == pytest.approx(
        0.5 * (1 + math.cos(math.pi * frac))
    )
    assert cosine_warmup_lr(100, 10, 100, 1.0) == 0.0
    assert cosine_warmup_lr(150, 10, 100, 1.0) == 0.0


@given(st.integers(0, 10**6))
@settings(max_examples=50)
def test_cosine_warmup_bounds(step):
    lr = cosine_warmup_lr(step, 100, 1000, 0.3)
    assert 0.0 <= lr <= 0.3


def test_checkpoint_round_trip(tmp_path):
    p = init_params(13, 9, 7, 5)
    path = tmp_path / "enc.ecpm"
    save_params(path, p)
    q = load_params(path)
    for a, b in zip(p.arrays(), q.arrays()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_header_validation(tmp_path):
    p = init_params(13, 4, 3, 2)
    path = tmp_path / "enc.ecpm"
    save_params(path, p)
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"XXXX"
    bad = tmp_path / "bad.ecpm"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        load_params(bad)
    truncated = tmp_path / "short.ecpm"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        load_params(truncated)


@pytest.mark.parametrize(
    "n, edges",
    [(0, []), (1, [(0, 1)]), (4, [(0, 4)]), (5, [(0, 5)]), (6, [(0, 4), (4, 6)]), (9, [(0, 4), (4, 9)])],
)
def test_row_blocks_cover_the_rows_and_never_end_in_a_lone_row(n, edges):
    assert [(b.start, b.stop) for b in row_blocks(n, 4)] == edges

