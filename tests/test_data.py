import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsieve.data import (
    Dataset,
    GenConfig,
    Label,
    _BLOCK,
    generate_blocks,
    generate_dataset,
    label_plan,
    largest_remainder_counts,
    mixing_matrices,
    read_manifest,
    read_manifest_labels,
    rows_in_block,
    split_rows,
    split_validation,
    write_csv,
    write_manifest,
)
from pairsieve.errors import ConfigError, FormatError
from pairsieve.rng import substream


def small_cfg(**kw):
    defaults = dict(n_pairs=300, seed=11)
    defaults.update(kw)
    return GenConfig(**defaults)


def test_invalid_fractions_rejected():
    with pytest.raises(ConfigError):
        GenConfig(n_pairs=10, f_good=0.5, f_clean=0.5, f_noisy=0.5)
    with pytest.raises(ConfigError):
        GenConfig(n_pairs=10, f_good=-0.1, f_clean=0.6, f_noisy=0.5)
    with pytest.raises(ConfigError):
        GenConfig(n_pairs=10, sigma_good=0.4, sigma_clean=0.3)
    for latent_dim in (49, 65):  # wider than d_b=48, or than both sides
        with pytest.raises(ConfigError):
            GenConfig(n_pairs=10, latent_dim=latent_dim)


@given(
    st.integers(0, 500),
    st.lists(st.floats(0.001, 1.0), min_size=1, max_size=5),
)
def test_largest_remainder_partition(n, weights):
    total = sum(weights)
    fractions = [w / total for w in weights]
    counts = largest_remainder_counts(n, fractions)
    assert sum(counts) == n
    for c, f in zip(counts, fractions):
        assert abs(c - n * f) < 1.0 + 1e-9


def test_label_fractions_exact():
    ds = generate_dataset(small_cfg(n_pairs=1000, f_good=0.5, f_clean=0.2, f_noisy=0.3, seed=7))
    counts = np.bincount(ds.labels, minlength=len(Label))
    assert counts[Label.GOOD] == 500
    assert counts[Label.CLEAN] == 200
    assert counts[Label.NOISY] == 300


def test_no_noisy_when_fraction_zero():
    ds = generate_dataset(small_cfg(f_good=0.6, f_clean=0.4, f_noisy=0.0))
    assert not np.any(ds.labels == Label.NOISY)


def test_generation_deterministic():
    cfg = small_cfg(n_pairs=1000, f_good=0.5, f_clean=0.2, f_noisy=0.3, seed=7)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert a.x_a.tobytes() == b.x_a.tobytes()
    assert a.x_b.tobytes() == b.x_b.tobytes()
    assert a.tokens.tobytes() == b.tokens.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def _quantize_tokens(coords, row_scale, vocab):
    u = np.array([0.5 * (1.0 + math.erf(c / (s * math.sqrt(2.0)))) for c, s in zip(coords, row_scale)])
    return np.minimum((u * vocab).astype(np.int64), vocab - 1)


def _reference_generate(cfg):
    """The generator as a loop over records, one fresh substream each."""
    a_mix, b_mix = mixing_matrices(cfg)
    labels = label_plan(cfg)
    k = cfg.latent_dim
    noise = {
        Label.GOOD: cfg.sigma_good * math.sqrt(k),
        Label.CLEAN: cfg.sigma_clean * math.sqrt(k),
        Label.NOISY: cfg.sigma_clean * math.sqrt(k),
    }
    b_row_scale = np.linalg.norm(b_mix[: cfg.token_coords], axis=1)
    reps = -(-cfg.seq_len // cfg.token_coords)  # ceil

    x_a = np.empty((cfg.n_pairs, cfg.d_a))
    x_b = np.empty((cfg.n_pairs, cfg.d_b))
    tokens = np.empty((cfg.n_pairs, cfg.seq_len), dtype=np.int64)
    for rid in range(cfg.n_pairs):
        rng = substream(cfg.seed, "record", rid)
        lab = Label(int(labels[rid]))
        z_a = rng.standard_normal(k)
        z_b = rng.standard_normal(k) if lab is Label.NOISY else z_a
        scale = noise[lab]
        x_a[rid] = a_mix @ z_a + scale * rng.standard_normal(cfg.d_a)
        x_b[rid] = b_mix @ z_b + scale * rng.standard_normal(cfg.d_b)
        if lab is Label.NOISY:
            tokens[rid] = rng.integers(0, cfg.vocab, size=cfg.seq_len)
        else:
            clean_b = b_mix[: cfg.token_coords] @ z_b
            base = _quantize_tokens(clean_b, b_row_scale, cfg.vocab)
            tokens[rid] = np.tile(base, reps)[: cfg.seq_len]
    return labels, x_a, x_b, tokens


def _assert_matches_reference(cfg):
    ds = generate_dataset(cfg)
    np.testing.assert_array_equal(ds.ids, np.arange(cfg.n_pairs))
    for got, want in zip((ds.labels, ds.x_a, ds.x_b, ds.tokens), _reference_generate(cfg)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(-(2**70), -1), st.integers(2**64, 2**70))


@st.composite
def _gen_configs(draw):
    weights = draw(st.sampled_from([(4, 3, 3), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 0, 4), (2, 2, 0)]))
    k = draw(st.integers(1, 16))
    d_b = draw(st.integers(k, 48))
    seq_len = draw(st.integers(1, 13))
    sigmas = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return GenConfig(
        n_pairs=draw(st.integers(0, 60)),
        latent_dim=k,
        d_a=draw(st.integers(k, 64)),
        d_b=d_b,
        f_good=weights[0] / sum(weights),
        f_clean=weights[1] / sum(weights),
        f_noisy=weights[2] / sum(weights),
        sigma_good=sigmas[0],
        sigma_clean=sigmas[1],
        vocab=draw(st.sampled_from([2, 64, 100])),
        seq_len=seq_len,
        token_coords=draw(st.integers(1, min(seq_len, d_b))),
        seed=draw(_SEEDS),
        world_seed=draw(st.none() | _SEEDS),
    )


@given(_gen_configs())
@settings(max_examples=120)
def test_generation_matches_per_record_reference(cfg):
    _assert_matches_reference(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(n_pairs=589, seed=5),  # two full blocks and a partial one
        GenConfig(n_pairs=2 * _BLOCK + 1, seed=6),  # a lone last row joins the block before it
        GenConfig(n_pairs=300, seed=3, world_seed=-1, vocab=100, seq_len=10, token_coords=3),
    ],
)
def test_generation_matches_per_record_reference_across_blocks(cfg):
    _assert_matches_reference(cfg)


def test_generate_blocks_never_yield_a_lone_row():
    # At 2 * _BLOCK + 1 pairs the last row joins the block before it, so a caller that encodes each
    # block whole never takes numpy's one-row product path; a lone-row set is its own block.
    for n_pairs, sizes in ((2 * _BLOCK + 1, [_BLOCK, _BLOCK + 1]), (2 * _BLOCK, [_BLOCK, _BLOCK]), (1, [1]), (0, [])):
        blocks = list(generate_blocks(small_cfg(n_pairs=n_pairs)))
        assert [len(block) for block in blocks] == sizes, n_pairs
        assert [i for block in blocks for i in block.ids.tolist()] == list(range(n_pairs)), n_pairs


def _joined(pieces, name):
    return np.concatenate([getattr(piece, name) for piece in pieces])


def _row_pieces(cfg, row_sets):
    """For each generated block, one ``Dataset`` per array of sorted rows: its rows in the block (``rows_in_block``).

    Each piece's slice of its rows is checked to follow the one before it, so the pieces join to the rows.
    """
    blocks, ends = [], [0] * len(row_sets)
    for block in generate_blocks(cfg):
        pieces = []
        for i, rows in enumerate(row_sets):
            at, local = rows_in_block(rows, block)
            assert at.start == ends[i] and (rows[at] - block.ids[0]).tolist() == local.tolist()
            ends[i] = at.stop
            pieces.append(block.take_rows(local))
        blocks.append(pieces)
    assert ends == [len(rows) for rows in row_sets]
    return blocks


def test_rows_in_block_are_the_dataset_rows():
    # Each generated block gives each row set its rows in that block, so the pieces join to the dataset's rows.
    cfg = small_cfg(n_pairs=600, seed=4)
    ds = generate_dataset(cfg)
    row_sets = [np.arange(600), np.array([0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 599]), np.arange(0)]
    blocks = _row_pieces(cfg, row_sets)
    assert len(blocks) == -(-600 // _BLOCK)
    for i, (start, pieces) in enumerate(zip(range(0, 600, _BLOCK), blocks)):
        assert all(np.all((start <= piece.ids) & (piece.ids < start + _BLOCK)) for piece in pieces), i
    for rows, pieces in zip(row_sets, zip(*blocks), strict=True):
        assert _joined(pieces, "ids").tobytes() == rows.astype(np.int64).tobytes()
        assert _joined(pieces, "x_a").tobytes() == ds.x_a[rows].tobytes()
        assert _joined(pieces, "x_b").tobytes() == ds.x_b[rows].tobytes()


def test_rows_for_ids_matches_positions_and_rejects_unknown_ids():
    # A shuffled subset has gaps in its ids and a largest id that is not last.
    ds = generate_dataset(small_cfg(n_pairs=60))
    sub = ds.take_rows(np.random.default_rng(3).permutation(60)[:25])
    position = {int(v): i for i, v in enumerate(sub.ids)}
    ask = [int(sub.ids[7]), int(sub.ids[0]), int(sub.ids[7]), int(sub.ids.max())]
    np.testing.assert_array_equal(sub.rows_for_ids(ask), [position[v] for v in ask])
    np.testing.assert_array_equal(sub.rows_for_ids(np.array(ask)), [position[v] for v in ask])
    assert sub.rows_for_ids([]).shape == (0,)
    absent = sorted(set(range(60)) - set(position))[0]
    for bad in (absent, 60, 10**12, -1):
        with pytest.raises(KeyError):
            sub.rows_for_ids([int(sub.ids[0]), bad])

    # Ids read from a manifest may be negative or far apart.
    odd_ids = np.arange(25, dtype=np.int64) * 10**12 - 7
    odd = Dataset(odd_ids, sub.labels, sub.x_a, sub.x_b, sub.tokens, sub.config)
    np.testing.assert_array_equal(odd.rows_for_ids([odd_ids[3], -7, odd_ids[24]]), [3, 0, 24])
    for bad in (-8, 0, 10**12):
        with pytest.raises(KeyError):
            odd.rows_for_ids([bad])


def test_tokens_within_vocab():
    ds = generate_dataset(small_cfg(n_pairs=500, vocab=16))
    assert ds.tokens.min() >= 0
    assert ds.tokens.max() < 16


def _latent_proxy_scores(ds):
    # Oracle: recover each side's latent with the pseudo-inverse of the
    # mixing maps and measure their cosine.
    a_mix, b_mix = mixing_matrices(ds.config)
    a_pinv = np.linalg.pinv(a_mix)
    b_pinv = np.linalg.pinv(b_mix)
    za = ds.x_a @ a_pinv.T
    zb = ds.x_b @ b_pinv.T
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zb /= np.linalg.norm(zb, axis=1, keepdims=True)
    return np.sum(za * zb, axis=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_separability_margins(seed):
    ds = generate_dataset(GenConfig(n_pairs=5000, seed=seed))
    scores = _latent_proxy_scores(ds)
    means = {lab: scores[ds.labels == lab].mean() for lab in Label}
    assert means[Label.GOOD] - means[Label.CLEAN] > 0.1
    assert means[Label.CLEAN] - means[Label.NOISY] > 0.1


def test_split_validation_good_only():
    ds = generate_dataset(small_cfg(n_pairs=1000, seed=3))
    train, val = split_validation(ds, 100, seed=5)
    assert len(val) == 100
    assert len(train) == 900
    assert all(Label(int(l)) is Label.GOOD for l in val.labels)
    assert set(val.ids.tolist()).isdisjoint(train.ids.tolist())


def test_split_validation_zero():
    ds = generate_dataset(small_cfg())
    train, val = split_validation(ds, 0, seed=1)
    assert len(val) == 0
    assert len(train) == len(ds)


def test_split_validation_all_good_boundary():
    ds = generate_dataset(small_cfg(n_pairs=100, seed=9))
    n_good = int(np.sum(ds.labels == Label.GOOD))
    train, val = split_validation(ds, n_good, seed=1)
    assert not np.any(train.labels == Label.GOOD)
    with pytest.raises(ConfigError):
        split_validation(ds, n_good + 1, seed=1)


@given(st.lists(st.sampled_from(list(Label)), max_size=80), st.data(), st.integers(0, 2**63 - 1))
@settings(max_examples=60)
def test_split_rows_partitions_the_rows_and_draws_good_ones(codes, data, seed):
    labels = np.array(codes, dtype=np.int8)
    n_good = int(np.sum(labels == Label.GOOD))
    n_val = data.draw(st.integers(0, n_good), label="n_val")
    train, val = split_rows(labels, n_val, seed)
    for rows in (train, val):
        assert np.all(np.diff(rows) > 0)
    assert np.intersect1d(train, val).size == 0
    assert np.array_equal(np.sort(np.concatenate([train, val])), np.arange(len(labels)))
    assert len(val) == n_val
    assert np.all(labels[val] == Label.GOOD)
    with pytest.raises(ConfigError):
        split_rows(labels, n_good + data.draw(st.integers(1, 5), label="excess"), seed)


def test_rows_in_block_of_split_rows_is_the_split_of_the_dataset():
    # One generation pass over several blocks gives the parts split_validation cuts from the whole dataset.
    cfg = small_cfg(n_pairs=2 * _BLOCK + 88, seed=4)
    ds = generate_dataset(cfg)
    for n_val in (0, 50, int(np.sum(ds.labels == Label.GOOD))):
        blocks = _row_pieces(cfg, split_rows(label_plan(cfg), n_val, seed=5))
        for pieces, want in zip(zip(*blocks), split_validation(ds, n_val, seed=5), strict=True):
            for name in ("ids", "labels", "x_a", "x_b", "tokens"):
                a, b = _joined(pieces, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (n_val, name)
            assert all(piece.config == want.config for piece in pieces)
    with pytest.raises(ConfigError):
        split_rows(label_plan(cfg), int(np.sum(ds.labels == Label.GOOD)) + 1, seed=5)


def test_threshold_ladder_good_fraction_non_decreasing():
    ds = generate_dataset(GenConfig(n_pairs=4000, seed=6))
    scores = _latent_proxy_scores(ds)
    # Evenly spaced ladder mapped into the upper score range, mirroring a
    # four-rung threshold study; each rung's good fraction is over every pair above it.
    lo, hi = np.quantile(scores, [0.50, 0.95])
    ladder = [lo + t * (hi - lo) for t in (0.0, 1 / 3, 2 / 3, 1.0)]
    good_fracs = [np.mean(ds.labels[scores > t] == Label.GOOD) for t in ladder]
    assert all(b >= a for a, b in zip(good_fracs, good_fracs[1:]))
    assert good_fracs[-1] > good_fracs[0]


def test_manifest_round_trip(tmp_path):
    ds = generate_dataset(small_cfg(n_pairs=50, seed=12))
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, ds)
    ids, labels, tokens = read_manifest(path)
    np.testing.assert_array_equal(ids, ds.ids)
    np.testing.assert_array_equal(labels, ds.labels)
    np.testing.assert_array_equal(tokens, ds.tokens)
    # Re-writing the same dataset produces identical bytes.
    second = tmp_path / "again.jsonl"
    write_manifest(second, generate_dataset(small_cfg(n_pairs=50, seed=12)))
    assert path.read_bytes() == second.read_bytes()


def test_read_manifest_rejects_scalar_tokens(tmp_path):
    # Every line's tokens a scalar would stack into a 1-D array; a token array must be 2-D.
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"id": 0, "oracle_label": "good", "tokens": 7}\n{"id": 1, "oracle_label": "noisy", "tokens": 8}\n')
    with pytest.raises(FormatError, match="tokens read as 1-D int64"):
        read_manifest(path)


def test_manifest_blocks_read_as_one_file(tmp_path):
    # 589 lines: two full blocks of lines and a partial one.
    ds = generate_dataset(small_cfg(n_pairs=589, seed=5))
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, ds)
    ids, labels, tokens = read_manifest(path)
    assert ids.tobytes() == ds.ids.tobytes() and tokens.tobytes() == ds.tokens.tobytes()
    assert labels.tobytes() == read_manifest_labels(path).tobytes() == ds.labels.tobytes()
    lines = path.read_text().splitlines(keepends=True)
    lines[_BLOCK:] = [line.replace('"tokens": [', '"tokens": [1, ') for line in lines[_BLOCK:]]
    path.write_text("".join(lines))
    for read in (read_manifest, read_manifest_labels):
        with pytest.raises(FormatError, match=f"manifest.jsonl:{_BLOCK + 1}: .* wide from this line"):
            read(path)


def _row(rid, tokens="[1, 2]"):
    return f'{{"id": {rid}, "oracle_label": "good", "tokens": {tokens}}}'


# Manifests whose lines join into a JSON list of good rows, though line 1 is not
# JSON alone. In the first three a row runs on into line 2 and line 3 holds two
# rows, so there are as many rows as lines; in the last, two lines hold one row.
_TORN = {
    "list-across-lines": ['{"id": 0, "oracle_label": "good", "tokens": [1, 2], "x": [{}', "{}]}", _row(1) + ", " + _row(2)],
    "tokens-across-lines": ['{"id": 0, "oracle_label": "good", "tokens": [1', "2]}", _row(1) + ", " + _row(2)],
    "object-in-tokens": ['{"id": 0, "oracle_label": "good", "tokens": [{}', "{}]}", _row(1) + ", " + _row(2)],
    "one-row-on-two-lines": ['{"id": 0, "oracle_label": "good", "tokens": [1, 2], "x": [{}', '{"a": 1, "b": 2, "c": 3}]}'],
}


@pytest.mark.parametrize("lines", _TORN.values(), ids=_TORN.keys())
def test_read_manifest_refuses_a_row_torn_across_lines(tmp_path, lines):
    json.loads("[" + ",".join(lines) + "]")  # joined as a block is, the lines parse
    with pytest.raises(ValueError) as parse:
        json.loads(lines[0] + "\n")  # as the file holds it
    path = tmp_path / "manifest.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    for read in (read_manifest, read_manifest_labels):
        with pytest.raises(FormatError) as err:
            read(path)
        assert str(err.value) == f"{path}:1: malformed manifest line ({parse.value!r})"


# Line 1 of a manifest that no reader can take in: its tokens nest deeper than
# json.loads recurses, or it holds a byte that is not UTF-8.
_UNREADABLE = {
    "deep-nesting": ('{"id": 0, "oracle_label": "good", "tokens": ' + "[" * 100_000 + "]" * 100_000 + "}\n").encode(),
    "not-utf-8": b'{"id": 0, "oracle_label": "good", "tokens": [1, 2]}\xff\n',
}


@pytest.mark.parametrize("first", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_read_manifest_refuses_an_unreadable_line_as_a_format_error(tmp_path, first):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(first + (_row(1) + "\n").encode())
    for read in (read_manifest, read_manifest_labels):
        with pytest.raises(FormatError, match=re.escape(str(path))):
            read(path)


@pytest.mark.parametrize(
    "extra",
    ['"x": 0', '"note": "a } and a {"', '"x": [{"y": "]"}, {}]', '"id": 3', '"tokens": "[1]"'],
    ids=["number", "braces-in-string", "objects", "repeated-id", "repeated-tokens"],
)
def test_read_manifest_reads_lines_with_one_extra_key(tmp_path, extra):
    # json.loads keeps the last of repeated keys, so the key goes in front of the row's own.
    ds = generate_dataset(small_cfg(n_pairs=589, seed=5))
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, ds)
    path.write_text(path.read_text().replace("{", "{" + extra + ", "))  # each line's one brace
    ids, labels, tokens = read_manifest(path)
    assert ids.tobytes() == ds.ids.tobytes() and tokens.tobytes() == ds.tokens.tobytes()
    assert labels.tobytes() == read_manifest_labels(path).tobytes() == ds.labels.tobytes()


def _manifest_by_json_dumps(ds):
    rows = (
        {"id": int(i), "oracle_label": Label(int(lab)).tag, "tokens": [int(t) for t in toks]}
        for i, lab, toks in zip(ds.ids, ds.labels, ds.tokens)
    )
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")


def test_manifest_bytes_equal_json_dumps(tmp_path):
    sub = generate_dataset(small_cfg(n_pairs=6, seed=2, vocab=100, seq_len=5))
    ids = np.array([-7, -(10**12) - 3, 0, 10**12 - 1, 10**12, 2**62], dtype=np.int64)
    labels = np.array([Label.NOISY, Label.GOOD, Label.CLEAN, Label.GOOD, Label.NOISY, Label.CLEAN], dtype=np.int8)
    big = np.array([-1, 0, -(2**63), 2**63 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 10**17, 7, -64], dtype=np.int64)
    for ds in (
        Dataset(ids, labels, sub.x_a, sub.x_b, sub.tokens, sub.config),
        Dataset(ids, labels, sub.x_a, sub.x_b, np.resize(big, (6, 5)), sub.config),
        sub.take_rows(np.array([], dtype=np.int64)),
        generate_dataset(small_cfg(n_pairs=589, seed=5)),  # two full blocks of lines and a partial one
    ):
        path = tmp_path / f"manifest{len(ds)}.jsonl"
        write_manifest(path, ds)
        assert path.read_bytes() == _manifest_by_json_dumps(ds)
    assert (tmp_path / "manifest0.jsonl").read_bytes() == b""


def test_write_csv_failure_keeps_old_file(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
    before = path.read_bytes()

    def rows():
        yield [5, 6]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["a", "b"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]
