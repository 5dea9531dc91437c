"""Reducers: percentiles with a sample-count rule, and span self time."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 therefore needs >= 1000 samples).
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by nearest rank."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supports(count: int, q: float) -> bool:
    """Does a sample of ``count`` support the ``q``-th percentile, i.e.
    leave at least MIN_TAIL_SAMPLES samples beyond it?"""
    return count * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing a sample too small for it."""
    if not supports(len(values), q):
        raise ValueError(
            f"p{q:g} needs >= {math.ceil(MIN_TAIL_SAMPLES * 100 / (100 - q))}"
            f" samples, got {len(values)}"
        )
    return percentile(values, q)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the stability
    figure the benchmark is tuned against)."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


Span = Tuple[str, int, int, Optional[int], int]
"""(name, start_ns, end_ns, parent index or None, op id)."""


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the time its direct children cover.

    Children of one parent never overlap (one thread, nested calls), so
    covered time is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [
        (end - start) - child_ns[i]
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, Tuple[int, int]]:
    """name -> (call count, total self time ns)."""
    out: Dict[str, Tuple[int, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span[0], (0, 0))
        out[span[0]] = (calls + 1, total + own)
    return out
