"""Pure metric arithmetic for the benchmark: percentiles, knee, outage, spans.

Nothing here touches the program under test, so every rule the benchmark
reports by can be unit-tested on synthetic inputs (``test_ringbench.py``).

Latency conventions:

* A transaction that never commits has latency ``math.inf``: it counts as
  over every latency limit and sorts after every committed one.
* A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
  strictly beyond its rank; otherwise the sample does not support it and the
  value is ``None``.  Every percentile carries its sample count.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Samples that must lie beyond a percentile's rank for it to be reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One latency percentile with the sample size behind it."""

    q: float
    value: float | None  # seconds; None when the sample does not support q
    samples: int
    beyond: int  # samples ranked strictly after the reported one

    @property
    def supported(self) -> bool:
        return self.value is not None


def percentile(latencies: Iterable[float], q: float, min_beyond: int = MIN_BEYOND) -> Percentile:
    """Nearest-rank ``q`` percentile (0 < q < 1) of ``latencies``.

    The reported sample has rank ``ceil(q * n)``; ``n - rank`` samples lie
    beyond it.  Infinite latencies (never committed) take part like any other
    sample, so a percentile that lands on one is ``inf``: over every limit.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile fraction must lie in (0, 1), got {q}")
    values = sorted(latencies)
    n = len(values)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        return Percentile(q=q, value=None, samples=n, beyond=max(beyond, 0))
    return Percentile(q=q, value=values[rank - 1], samples=n, beyond=beyond)


def highest_supported(latencies: Sequence[float], candidates=(0.999, 0.99, 0.9, 0.5)) -> Percentile:
    """The highest of ``candidates`` the sample supports (the last one if none)."""
    result = percentile(latencies, candidates[-1])
    for q in candidates:
        result = percentile(latencies, q)
        if result.supported:
            return result
    return result


# ----------------------------------------------------------------------
# open-loop ladder: backlog and knee
# ----------------------------------------------------------------------


def backlog_mean(
    submits: Sequence[float], completes: Sequence[float], start: float, end: float
) -> float:
    """Time-averaged backlog (submitted minus completed) over ``[start, end)``.

    ``submits`` and ``completes`` are sorted event times; a transaction that
    never commits simply has no completion, so it stays in the backlog.
    Computed exactly from the step function, not from samples.
    """
    if end <= start:
        raise ValueError("empty backlog window")
    level = bisect.bisect_left(submits, start) - bisect.bisect_left(completes, start)
    events = sorted(
        [(t, 1) for t in submits[bisect.bisect_left(submits, start):] if t < end]
        + [(t, -1) for t in completes[bisect.bisect_left(completes, start):] if t < end]
    )
    area = 0.0
    cursor = start
    for t, step in events:
        area += level * (t - cursor)
        cursor = t
        level += step
    area += level * (end - cursor)
    return area / (end - start)


@dataclass(frozen=True)
class Rung:
    """One fixed-rate step of an open-loop ladder."""

    rate: float
    start: float
    end: float
    #: Latency of every transaction due during the rung (inf = never committed).
    latencies: tuple[float, ...]
    #: Mean backlog over the rung's second and last quarter.
    backlog_q2: float
    backlog_q4: float

    @property
    def backlog_growth(self) -> float:
        return self.backlog_q4 - self.backlog_q2


#: A rung's backlog "grows" when its last-quarter mean exceeds its
#: second-quarter mean by more than this share (and by more than
#: :data:`BACKLOG_SLACK` transactions, so an idle system is not flagged).
BACKLOG_TOLERANCE = 0.10
BACKLOG_SLACK = 10.0


def rung_from_times(
    rate: float,
    start: float,
    end: float,
    due: Sequence[float],
    done: Sequence[float | None],
    all_submits: Sequence[float],
    all_completes: Sequence[float],
) -> Rung:
    """Build a :class:`Rung` from per-transaction due/commit times.

    ``due``/``done`` cover the transactions due during the rung (``None`` =
    never committed); ``all_submits``/``all_completes`` are every
    transaction's sorted times, for the backlog.
    """
    latencies = tuple(
        math.inf if finished is None else finished - sent for sent, finished in zip(due, done)
    )
    quarter = (end - start) / 4.0
    return Rung(
        rate=rate,
        start=start,
        end=end,
        latencies=latencies,
        backlog_q2=backlog_mean(all_submits, all_completes, start + quarter, start + 2 * quarter),
        backlog_q4=backlog_mean(all_submits, all_completes, start + 3 * quarter, end),
    )


def rung_passes(rung: Rung, limit_s: float) -> bool:
    """p99 supported and within ``limit_s``, and the backlog does not grow."""
    p99 = percentile(rung.latencies, 0.99)
    if not p99.supported or p99.value > limit_s:
        return False
    allowed = max(BACKLOG_SLACK, BACKLOG_TOLERANCE * rung.backlog_q2)
    return rung.backlog_growth <= allowed


def knee_rate(rungs: Sequence[Rung], limit_s: float) -> float:
    """Highest rate such that its rung and every lower rung pass; 0.0 if none."""
    knee = 0.0
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung_passes(rung, limit_s):
            break
        knee = rung.rate
    return knee


# ----------------------------------------------------------------------
# fault recovery
# ----------------------------------------------------------------------


def outage_seconds(crash_at: float, commits: Iterable[tuple[float, float]]) -> float | None:
    """From ``crash_at`` to the first commit of a transaction submitted after it.

    ``commits`` yields ``(submitted_at, completed_at)`` of the transactions
    that involve the crashed shard.  ``None`` when none such ever commits.
    """
    after = [done for sent, done in commits if sent >= crash_at]
    if not after:
        return None
    return min(after) - crash_at


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> array:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded on one thread, so children nest strictly inside their
    parent and never overlap each other: subtracting the children's summed
    durations is exactly "minus the part of the interval they cover".
    """
    result = array("d", (end - start for start, end in zip(starts, ends)))
    for index, parent in enumerate(parents):
        if parent >= 0:
            result[parent] -= ends[index] - starts[index]
    return result
