"""Range functions, in the step grid's column form.

The step-grid evaluator (``repro.pmag.query.grid``) keeps a series as
parallel (timestamps, values) lists and evaluates a range function over
EVERY window of the query in one call.  ``COLUMN_RANGE_FUNCTIONS`` maps
each range function to ``prepare(times, los, his, spans)`` — the work
that depends only on the timeline and the windows, done once per
distinct timeline — returning ``column(values, reset_free=False)``,
which yields one cell per window (``None`` where the window is empty or
too short for the function).  ``rate``/``increase`` take Prometheus'
closed form (its ``extrapolatedRate`` before extrapolation): last -
first, plus the value before each reset (a drop) inside the window —
O(1) per reset-free window, no fold.  A NaN inside a window is no reset,
so a reset right after it is missed and the increase can come out low or
negative (``[10, NaN, 2]`` gives -8), as in Prometheus; a NaN at either
end gives NaN.  ``irate`` reads its last pair only.

``reset_free`` is the select's word that the series' values hold no NaN
and no drop (per-chunk facts, :mod:`repro.pmag.chunks`).  With it the
counter functions skip :func:`counter_resets` — the copy, sum and sort
every query would otherwise spend to learn the same thing — and
``increase`` is the ``delta`` column, ``rate`` one pass over the window
ends.  Both are the float operations the general path performs when it
finds no reset, in the same order, so the cells are bit-identical.  The
other functions ignore the flag.

The one-window-at-a-time Sample-list forms these were derived from live
in ``tests/query_oracle.py``; a property test in
tests/test_perf_equivalence pins the two families together, float bit
for float bit, and tests/test_reset_free pins the flagged path to the
general one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress, count
from operator import lt, sub
from typing import Callable, List

from repro.errors import QueryError
from repro.pmag.chunks import nondecreasing

NANOS_PER_SEC = 1_000_000_000


def quantile_of(values: List[float], quantile: float) -> float:
    """Linear-interpolation quantile (Prometheus semantics)."""
    if not values:
        raise QueryError("quantile of an empty set")
    if not 0.0 <= quantile <= 1.0:
        raise QueryError(f"quantile out of range: {quantile}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = quantile * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    # a + f*(b-a) rather than a*(1-f) + b*f: exact when a == b, and never
    # leaves [a, b] under floating-point rounding.
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def window_bounds(times, windows):
    """Index bounds of every window in a sorted timestamp array.

    Returns parallel lists ``(los, his, spans)``: samples of window ``i``
    live at ``times[los[i]:his[i]]``.  Window bounds are nondecreasing
    across steps, so each bisect is hinted by the previous result.  The
    result depends only on ``times`` — series scraped on the same
    schedule share their timestamp array, so callers folding many series
    reuse one sweep per distinct timeline (:class:`TimelineMemo`).
    """
    search_left, search_right = bisect_left, bisect_right
    los: List[int] = []
    his: List[int] = []
    push_lo = los.append
    push_hi = his.append
    lo = hi = 0
    for w_lo, w_hi in windows:
        lo = search_left(times, w_lo, lo)
        hi = search_right(times, w_hi, hi if hi >= lo else lo)
        push_lo(lo)
        push_hi(hi)
    return los, his, list(map(sub, his, los))


class TimelineMemo:
    """``build(times)`` remembered for the most recent timestamp array.

    Selects return series sorted by labels, and series scraped on the
    same schedule carry equal timestamp arrays, so remembering one entry
    serves runs of same-schedule series with a C-level list compare.
    """

    __slots__ = ("_build", "_times", "_built")

    def __init__(self, build: Callable) -> None:
        self._build = build
        self._times = None
        self._built = None

    def get(self, times):
        """``build(times)``, reused while ``times`` repeats."""
        if self._built is None or times != self._times:
            self._times = times
            self._built = self._build(times)
        return self._built


def counter_resets(values: List[float]) -> List[int]:
    """Indices ``i`` with ``values[i] < values[i - 1]``, ascending.

    A NaN compares false both ways, so neither it nor the drop after it
    is a reset.  :func:`~repro.pmag.chunks.nondecreasing` (a C-level sum
    and sort) clears a reset-free list in half the pairwise scan's time;
    a select that already knows its window is reset-free skips even that.
    """
    if nondecreasing(values):
        return []
    return list(compress(count(1), map(lt, values[1:], values)))


def _prepare_delta(times, los, his, spans):
    def column(values, reset_free=False):
        return [
            values[hi - 1] - values[lo] if n >= 2 else None
            for lo, hi, n in zip(los, his, spans)
        ]
    return column


def _prepare_increase(times, los, his, spans):
    """Prometheus' closed form: last - first, then ``+= values[i - 1]``
    for each reset ``i`` inside the window, in order.  A reset-free
    series has none: its increase is its delta."""
    delta = _prepare_delta(times, los, his, spans)

    def column(values, reset_free=False):
        if reset_free:
            return delta(values)
        values = list(values)
        resets = counter_resets(values)
        cells = delta(values)
        if resets:
            for cell, (lo, hi) in enumerate(zip(los, his)):
                first = bisect_right(resets, lo)
                for i in resets[first:bisect_left(resets, hi, first)]:
                    cells[cell] += values[i - 1]
        return cells
    return column


def _prepare_rate(times, los, his, spans):
    increase = _prepare_increase(times, los, his, spans)
    # Timestamps strictly increase, so two samples always span > 0 ns;
    # 0 marks "fewer than two samples".
    elapsed = [
        times[hi - 1] - times[lo] if n >= 2 else 0
        for lo, hi, n in zip(los, his, spans)
    ]

    def column(values, reset_free=False):
        if reset_free:
            # increase's delta and this division, fused: same operands,
            # same order, same bits.
            return [
                (values[hi - 1] - values[lo]) * NANOS_PER_SEC / e
                if e > 0 else None
                for lo, hi, e in zip(los, his, elapsed)
            ]
        return [
            total * NANOS_PER_SEC / e if e > 0 else None
            for total, e in zip(increase(values), elapsed)
        ]
    return column


def _counter_step(previous: float, last: float) -> float:
    """A counter's increase across one pair: a drop counts from zero."""
    return last if last < previous else last - previous


def _prepare_irate(times, los, his, spans):
    elapsed = [
        times[hi - 1] - times[hi - 2] if n >= 2 else 0
        for hi, n in zip(his, spans)
    ]

    def column(values, reset_free=False):
        return [
            _counter_step(values[hi - 2], values[hi - 1]) * NANOS_PER_SEC / e
            if e > 0 else None
            for hi, e in zip(his, elapsed)
        ]
    return column


def window_reducer(reduce_window):
    """``prepare`` for a function of nothing but the window's values."""
    def prepare(times, los, his, spans):
        def column(values, reset_free=False):
            return [
                reduce_window(values[lo:hi]) if lo < hi else None
                for lo, hi in zip(los, his)
            ]
        return column
    return prepare


def _prepare_avg_over_time(times, los, his, spans):
    def column(values, reset_free=False):
        return [
            sum(values[lo:hi]) / n if n else None
            for lo, hi, n in zip(los, his, spans)
        ]
    return column


def _prepare_count_over_time(times, los, his, spans):
    counts = [float(n) if n else None for n in spans]
    return lambda values, reset_free=False: counts


COLUMN_RANGE_FUNCTIONS = {
    "rate": _prepare_rate,
    "irate": _prepare_irate,
    "increase": _prepare_increase,
    "delta": _prepare_delta,
    "avg_over_time": _prepare_avg_over_time,
    "min_over_time": window_reducer(min),
    "max_over_time": window_reducer(max),
    "sum_over_time": window_reducer(sum),
    "count_over_time": _prepare_count_over_time,
}

