"""Tests of the benchmark's metric arithmetic.

    python3 -m pytest perfbench/test_stats.py
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from tracing import edge_moments  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100, shuffled order must not matter
    values.reverse()
    value, pct, beyond = stats.tail(values)
    assert value == 90
    assert pct == 90.0
    assert beyond == 10
    assert sum(v > value for v in values) == 10


def test_tail_is_highest_such_percentile():
    values = list(range(1000))
    value, pct, beyond = stats.tail(values)
    assert (value, pct, beyond) == (989, 99.0, 10)
    # one rank higher would leave only nine samples beyond
    assert sum(v > 990 for v in values) == 9


def test_tail_at_twenty_samples_is_the_median_rank():
    value, pct, beyond = stats.tail(list(range(20)))
    assert (value, pct, beyond) == (9, 50.0, 10)


def test_tail_falls_back_to_maximum_below_twenty_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail(list(range(19))) == (18, 100.0, 0)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        stats.tail([])


def test_segmented_tail_is_mean_of_segment_tails():
    # 300 ops: three segments of 100, with p90s 89, 1089 and 4089
    values = list(range(100)) + [v + 1000 for v in range(100)] + [v + 4000 for v in range(100)]
    assert stats.segmented_tail(values) == ((89 + 1089 + 4089) / 3, 90.0, 3)


def test_segmented_tail_short_run_is_one_segment():
    values = [float(v) for v in range(150)]
    assert stats.segmented_tail(values) == stats.tail(values)[:2] + (1,)
    assert stats.segmented_tail([5.0, 7.0]) == (7.0, 100.0, 1)


def test_segmented_tail_spreads_remainder():
    value, pct, segments = stats.segmented_tail(list(range(250)))
    assert segments == 2  # segments of 125 ops, each leaving 10 beyond
    assert pct == 100.0 * 115 / 125


def test_round_median_is_mean_of_round_medians():
    # rounds (3, 1, 2), (10, 30, 20), (5, 5, 6): medians 2, 20, 5
    values = [3, 1, 2, 10, 30, 20, 5, 5, 6]
    assert stats.round_median(values, 3) == (9.0, 3)
    assert stats.round_median(values, 9) == (5, 1)
    assert stats.round_median([4.0, 8.0], 1) == (6.0, 2)


def test_round_median_moves_with_the_share_of_slow_ops():
    # ten rounds of ten ops, each round all fast (10) or all slow (14); the
    # pooled median jumps from 10 to 14 as the slow share passes one half
    for slow in range(11):
        values = [14.0] * (10 * slow) + [10.0] * (10 * (10 - slow))
        assert stats.round_median(values, 10)[0] == pytest.approx(10.0 + 0.4 * slow)


def test_round_median_rejects_partial_rounds():
    for values, size in (([1.0, 2.0, 3.0], 2), ([], 1), ([1.0], 0)):
        with pytest.raises(ValueError):
            stats.round_median(values, size)


def test_failure_rate_against_attempts():
    assert stats.failure_rate(0, 600) == 0.0
    assert stats.failure_rate(2, 200) == 0.01
    assert stats.failure_rate(5, 5) == 1.0
    for failed, attempted in ((1, 0), (-1, 10), (11, 10)):
        with pytest.raises(ValueError):
            stats.failure_rate(failed, attempted)


def _span(layer, name, start, end, parent=-1, op=None):
    return (layer, name, start, end, parent, op)


def test_self_time_is_span_minus_children():
    spans = [
        _span("cli", "main", 0.0, 10.0),
        _span("io", "read_edge_list", 1.0, 4.0, parent=0),
        _span("centrality", "degree", 5.0, 6.0, parent=0),
        _span("inference", "ols", 6.0, 6.5, parent=0),
        _span("bench", "check", 2.0, 3.0, parent=1),
    ]
    assert stats.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("monte_carlo", "run_cell", 0.0, 10.0),
        _span("monte_carlo", "_replicate", 1.0, 5.0, parent=0),
        _span("monte_carlo", "_replicate", 3.0, 7.0, parent=0),  # another worker thread
        _span("monte_carlo", "_replicate", 9.0, 12.0, parent=0),  # clipped to the parent
    ]
    assert stats.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_parallel_efficiency():
    assert stats.parallel_efficiency(60.0, 60.0, 2) == 0.5
    assert stats.parallel_efficiency(120.0, 60.0, 2) == 1.0
    assert stats.parallel_efficiency(50.0, 50.0, 1) == 1.0
    with pytest.raises(ValueError):
        stats.parallel_efficiency(1.0, 0.0, 2)


def test_overhead_ratio_uses_common_prefix():
    assert stats.overhead_ratio([2.0, 2.0], [1.0, 1.0, 100.0]) == 2.0
    with pytest.raises(ValueError):
        stats.overhead_ratio([], [1.0])


def test_edge_moments_constant_graphon():
    mean, var = edge_moments({"kind": "constant", "c": 0.5}, [0.1] * 4, 0.2)
    assert mean == pytest.approx(0.1 * 6)
    assert var == pytest.approx(0.1 * 0.9 * 6)


def test_edge_moments_sbm_matches_pairwise_sum():
    g = {"kind": "sbm", "pi": [0.5, 0.3, 0.2], "P": [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]]}
    u = [0.05, 0.49, 0.5, 0.51, 0.79, 0.8, 0.95]
    cuts = [0.5, 0.8]
    block = [sum(x >= c for c in cuts) for x in u]
    p = 0.3
    mean = var = 0.0
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            a = p * g["P"][block[i]][block[j]]
            mean += a
            var += a * (1 - a)
    got = edge_moments(g, u, p)
    assert got == pytest.approx((mean, var))
    assert not math.isnan(got[0])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
