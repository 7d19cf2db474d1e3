import statistics

import pytest

from stats import median, percentile, quartile_spread, summary


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 95) == pytest.approx(3.85)  # rank 3 * 0.95 = 2.85


def test_median_odd_even_and_single():
    assert median([5.0]) == 5.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5


def test_summary_reports_sample_count():
    s = summary([float(i) for i in range(1, 21)])
    assert s == {"median": 10.5, "p95": pytest.approx(19.05), "n": 20}


def test_empty_and_out_of_range_rejected():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 10.4, 9.8, 10.1, 10.0, 9.9, 10.3, 10.2, 9.7, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartile_spread([0.3] * 10) == 0.0
