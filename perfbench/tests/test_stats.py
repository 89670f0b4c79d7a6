import statistics

import pytest

import stats


@pytest.mark.parametrize("n, p", [(19, None), (20, 50), (99, 50),
                                  (100, 90), (999, 90), (1000, 99),
                                  (9999, 99), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p):
    values = [float(i) for i in range(n)]
    got = stats.tail(values)
    if p is None:
        assert got is None
        return
    assert got["p"] == p
    assert got["n"] == n
    beyond = sum(v > got["value"] for v in values)
    assert beyond >= stats.MIN_BEYOND


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 50) == statistics.median(values)
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_summary_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.5]
    summ = stats.summary(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert (summ["q1"], summ["median"], summ["q3"]) == (q1, 3.0, q3)
    assert summ["n"] == 7 and summ["tail"] is None


def test_ratio_of_empty_base_is_zero():
    assert stats.ratio(3, 4) == 0.75
    assert stats.ratio(0, 0) == 0.0
