import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from summary import describe, quartile_spread, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n", [0, 1, 10, 19])
def test_no_percentile_below_twenty_samples(n):
    assert tail_percentile(range(n)) is None


@pytest.mark.parametrize(
    "n, percentile, rank",
    [
        (20, 50, 10),  # 10 samples beyond the 10th
        (39, 50, 20),  # p75 would leave 9 beyond
        (40, 75, 30),
        (100, 90, 90),
        (199, 90, 180),  # p95 would leave 9 beyond
        (1000, 99, 990),
        (10000, 99.9, 9990),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, percentile, rank):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    p, value = tail_percentile(samples)
    assert p == percentile
    assert value == float(rank)  # the rank-th smallest sample
    assert sum(1 for s in samples if s > value) >= 10


def test_describe_reports_count_median_and_tail():
    out = describe([3.0, 1.0, 2.0])
    assert out == {"n": 3, "median": 2.0}
    out = describe([float(i) for i in range(1, 21)])
    assert out["tail_percentile"] == 50 and out["tail_value"] == 10.0


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
