"""Order statistics and span arithmetic for the served-path benchmark.

Two rules live here so the benchmark's own tests can pin them:

* a percentile is reported only when at least :data:`MIN_BEYOND` samples lie
  beyond it, so a p90 needs 100 samples and a p99 needs 1000;
* a span's self time is its duration minus the *union* of its children's
  intervals (clipped to the span), so overlapping children are not
  subtracted twice.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` with fewer than 10 samples beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(q * count))
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    current_start: Optional[int] = None
    current_end = 0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(
    spans: Mapping[int, Tuple[int, int]], parents: Mapping[int, int]
) -> Dict[int, int]:
    """Self time of every span: duration minus the union of its children.

    ``spans`` maps span id to ``(start, end)``; ``parents`` maps a child span
    id to its parent's id.  Children are clipped to the parent's interval, so
    a child that outlives its parent (a client call that returns before the
    server's span closes) subtracts only the overlap.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for child, parent in parents.items():
        if parent in spans and child in spans:
            children.setdefault(parent, []).append(spans[child])
    result: Dict[int, int] = {}
    for span_id, (start, end) in spans.items():
        clipped = [
            (max(start, child_start), min(end, child_end))
            for child_start, child_end in children.get(span_id, ())
        ]
        result[span_id] = (end - start) - union_length(clipped)
    return result
