"""The percentile rule: a percentile needs ten samples beyond it."""

from bench.stats import median, percentile, quartile_spread, samples_beyond


def test_samples_beyond():
    assert samples_beyond(40, 75) == 10
    assert samples_beyond(39, 75) == 9
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(1000, 99) == 10


def test_percentile_withheld_below_ten_samples_beyond():
    assert percentile(list(range(199)), 95) is None
    assert percentile(list(range(200)), 95) is not None
    assert percentile(list(range(39)), 75) is None
    assert percentile(list(range(40)), 75) == 29.25


def test_median_is_always_reported():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert median([]) is None and percentile([], 50) is None


def test_quartile_spread_is_iqr_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # statistics.quantiles(n=4): q1 = 11.75, q3 = 17.25, median 14.5
    assert abs(quartile_spread(values) - 5.5 / 14.5) < 1e-12
    assert quartile_spread([1.0]) is None
