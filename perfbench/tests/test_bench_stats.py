import pytest

import stats


def test_tail_is_the_eleventh_largest_sample():
    value, percentile, n = stats.tail(range(1, 101))
    assert (value, percentile, n) == (90, 90.0, 100)


def test_tail_percentile_follows_the_sample_count():
    samples = [float(i) for i in range(400)]
    value, percentile, n = stats.tail(reversed(samples))
    assert value == 389.0
    assert percentile == pytest.approx(97.5)
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_keeps_ten_beyond():
    value, percentile, _ = stats.tail([5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11])
    assert value == 1
    assert percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_falls_back_to_the_maximum():
    assert stats.tail([3, 9, 1]) == (9, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_is_quartile_distance_over_median():
    values = [8, 9, 10, 11, 12]
    # exclusive quartiles of five points: 8.5 and 11.5
    assert stats.spread(values) == pytest.approx(3 / 10)
