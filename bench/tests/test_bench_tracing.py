import pytest

from tracing import percentile, self_times


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_durations():
    starts = [0.0, 0.5, 0.6, 2.0, 3.0, 3.5]
    ends = [2.0, 1.5, 0.9, 2.5, 4.0, 3.75]
    parents = [-1, 0, 1, -1, -1, 4]
    roots = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
    assert sum(self_times(starts, ends, parents)) == pytest.approx(roots)


def test_percentile_interpolates_like_numpy():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([], 50) == 0.0
