import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairsieve.data import (
    GenConfig,
    Label,
    generate_dataset,
    largest_remainder_counts,
    mixing_matrices,
    read_manifest,
    split_validation,
    threshold_subsets,
    write_csv,
    write_manifest,
)
from pairsieve.errors import ConfigError, DimMismatch, InsufficientData


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
    counts = ds.label_counts()
    assert counts[Label.GOOD] == 500
    assert counts[Label.CLEAN] == 200
    assert counts[Label.NOISY] == 300


def test_no_noisy_when_fraction_zero():
    ds = generate_dataset(small_cfg(f_good=0.6, f_clean=0.4, f_noisy=0.0))
    assert ds.label_counts()[Label.NOISY] == 0


def test_generation_deterministic():
    cfg = small_cfg(n_pairs=1000, f_good=0.5, f_clean=0.2, f_noisy=0.3, seed=7)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert a.x_a.tobytes() == b.x_a.tobytes()
    assert a.x_b.tobytes() == b.x_b.tobytes()
    assert a.tokens.tobytes() == b.tokens.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


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
    n_good = ds.label_counts()[Label.GOOD]
    train, val = split_validation(ds, n_good, seed=1)
    assert train.label_counts()[Label.GOOD] == 0
    with pytest.raises(ConfigError):
        split_validation(ds, n_good + 1, seed=1)


def test_threshold_subsets_vacuous_threshold():
    ds = generate_dataset(small_cfg(n_pairs=200, seed=4))
    subsets = threshold_subsets(ds, _latent_proxy_scores(ds), [-1.0], m=50, seed=2)
    assert len(subsets) == 1 and len(subsets[0]) == 50


def test_threshold_subsets_insufficient():
    ds = generate_dataset(small_cfg(n_pairs=100, seed=4))
    with pytest.raises(InsufficientData) as err:
        threshold_subsets(ds, np.zeros(len(ds)), [0.5], m=10, seed=2)
    assert "0.5" in str(err.value)


def test_threshold_subsets_rejects_misaligned_scores():
    ds = generate_dataset(small_cfg(n_pairs=100, seed=4))
    for n in (99, 101):
        with pytest.raises(DimMismatch):
            threshold_subsets(ds, np.ones(n), [0.5], m=10, seed=2)


def test_threshold_ladder_good_fraction_non_decreasing():
    ds = generate_dataset(GenConfig(n_pairs=4000, seed=6))
    scores = _latent_proxy_scores(ds)
    # Evenly spaced ladder mapped into the upper score range, mirroring a
    # four-rung threshold study.
    lo, hi = np.quantile(scores, [0.50, 0.95])
    ladder = [lo + t * (hi - lo) for t in (0.0, 1 / 3, 2 / 3, 1.0)]
    subsets = threshold_subsets(ds, scores, ladder, m=150, seed=8)
    good_fracs = [np.mean(sub.labels == Label.GOOD) for sub in subsets]
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
