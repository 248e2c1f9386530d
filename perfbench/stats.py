"""Metric arithmetic shared by the benchmark runner and its tests.

Everything here is pure Python on plain numbers and span tuples, so it can
be tested without running a workload.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

# A span is (layer, name, start_s, end_s, parent_index, op_id); parent_index
# is -1 for a root span.
Span = Tuple[str, str, float, float, int, object]

TAIL_BEYOND = 10
TAIL_SEGMENT = 100


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the tail latency.

    The tail is the highest percentile that leaves at least ``TAIL_BEYOND``
    samples above it: the sample of rank N - 10 (1-based) among N sorted
    samples, which is percentile 100 (N - 10) / N.  Below 2 * TAIL_BEYOND
    samples that percentile falls at or under the median, so the maximum is
    reported instead, as percentile 100 with no sample beyond it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    if n < 2 * TAIL_BEYOND:
        return float(ordered[-1]), 100.0, 0
    rank = n - TAIL_BEYOND  # 1-based rank of the reported sample
    return float(ordered[rank - 1]), 100.0 * rank / n, n - rank


def segmented_tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, segments): the mean over segments of ``tail``.

    The ops, in the order they completed, are cut into contiguous segments
    of 100 to 199 ops (a run of fewer than 200 ops is one segment), and
    ``tail`` is taken in each.  A run's ten slowest ops move with whatever
    else the machine did in that run; a per-segment tail does not.  The
    mean, not the median, is taken over segments: on a shared host whole
    segments run fast or slow, and the median over segments jumps from one
    group to the other where the mean moves in proportion.
    """
    n = len(values)
    k = max(1, n // TAIL_SEGMENT)
    cuts = [i * n // k for i in range(k + 1)]
    tails = [tail(values[a:b]) for a, b in zip(cuts, cuts[1:])]
    return (
        statistics.fmean(t[0] for t in tails),
        statistics.fmean(t[1] for t in tails),
        k,
    )


def round_median(values: Sequence[float], size: int) -> Tuple[float, int]:
    """(value, rounds): the mean over rounds of the median op latency.

    A round is ``size`` consecutive ops, the workload's natural unit (a
    batch of replications, or one call per centrality).  The latency of a
    single op on a shared host falls in a fast or a slow group, and the
    share of each group changes from run to run; the median of the whole
    run jumps between the groups as that share crosses one half, while the
    mean of per-round medians moves in proportion to it.
    """
    n = len(values)
    if size < 1 or n == 0 or n % size:
        raise ValueError(f"{n} ops do not split into rounds of {size}")
    medians = [statistics.median(values[a:a + size]) for a in range(0, n, size)]
    return statistics.fmean(medians), len(medians)


def failure_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("failure rate needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for layer, name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (layer, name, start, end, parent, op) in enumerate(spans):
        out.append((end - start) - _covered(children.get(idx, []), start, end))
    return out


def parallel_efficiency(rate_at_threads: float, rate_at_one: float, threads: int) -> float:
    """Throughput at ``threads`` workers over ``threads`` times the 1-worker throughput."""
    if threads < 1 or rate_at_one <= 0:
        raise ValueError("parallel efficiency needs threads >= 1 and a positive 1-thread rate")
    return rate_at_threads / (threads * rate_at_one)


def overhead_ratio(traced_ms: Sequence[float], untraced_ms: Sequence[float]) -> float:
    """Traced over untraced op time, on the ops both runs completed.

    Both runs draw the same inputs in the same order, so op k is the same
    work in each; comparing the common prefix keeps a slow op that only one
    run reached from biasing the ratio.
    """
    k = min(len(traced_ms), len(untraced_ms))
    if k == 0:
        raise ValueError("overhead ratio needs at least one op in each run")
    return sum(traced_ms[:k]) / sum(untraced_ms[:k])
