"""Measurement helpers: tail percentiles, span self time, open-loop latency."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile together with the sample it came from."""

    q: float
    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile of ``values`` (``0 < q < 100``).

    Refuses (raises :class:`InsufficientSamples`) when fewer than
    :data:`MIN_BEYOND` samples lie above the percentile's rank, so a p95 needs
    at least 200 samples and a median at least 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    count = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * count))
    beyond = count - rank
    if count == 0 or beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {count} samples has {max(beyond, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return Percentile(q=q, value=ordered[rank - 1], samples=count, beyond=beyond)


def min_samples(q: float) -> int:
    """Fewest samples for which :func:`percentile` accepts ``q``."""
    count = MIN_BEYOND + 1
    while count - math.ceil(q / 100.0 * count) < MIN_BEYOND:
        count += 1
    return count


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the span first, so a child that started before
    or outlived its parent (possible across threads) only removes the part
    that overlaps the parent.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - union_length(clipped)


def latency_from_due(
    due: float, sent: float, server_seconds: float
) -> tuple[float, float]:
    """Open-loop ``(latency, lag)`` of one request, both in seconds.

    ``due`` is when the schedule said to send, ``sent`` when the generator
    actually sent, ``server_seconds`` the server-measured time from
    submission to completion.  Latency is measured from the due time, so a
    generator or server stall that delays later sends is charged to those
    requests too; ``lag`` is how late the generator ran.
    """
    lag = sent - due
    return lag + server_seconds, lag
