"""Percentile selection for ``job_s_tail``."""

import statistics

import pytest
from harness import tail_percentile


@pytest.mark.parametrize(
    ("n", "label"),
    [(1, "p50"), (39, "p50"), (40, "p75"), (99, "p75"), (100, "p90"),
     (999, "p90"), (1000, "p99")],
)
def test_highest_percentile_with_ten_samples_beyond(n, label):
    samples = [float(i) for i in range(n)]
    value, chosen = tail_percentile(samples)
    assert chosen == label
    if label == "p50":
        assert value == statistics.median(samples)
    else:
        p = int(label[1:])
        assert value == statistics.quantiles(samples, n=100)[p - 1]
        assert sum(s > value for s in samples) >= 10


def test_tail_is_fixed_by_the_sample_count_not_the_values():
    fast = [0.001] * 60
    slow = [1.0] * 60
    assert tail_percentile(fast)[1] == tail_percentile(slow)[1] == "p75"
