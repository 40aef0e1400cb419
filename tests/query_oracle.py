"""Reference query evaluator: the per-instant differential oracle.

``repro.pmag.query`` evaluates every query — instant or range, monolith
or sharded — on the step grid (``repro.pmag.query.grid``).  This is the
evaluator it replaced, kept as the specification: one expression at one
instant, one full ``Tsdb.select`` per selector occurrence, every window
materialised as ``Sample`` objects and handed to a one-window range
function.  ``tests/test_perf_equivalence.py`` and
``tests/test_instant_grid.py`` run both and require the same entries in
the same order with the same float bits, and the same ``QueryError``
when either raises.

It shares with the code under test only what has a single definition:
the parser, the per-instant operators of ``repro.pmag.query.ops``
(``topk``, ``histogram_quantile``, label matching — the grid calls the
same functions per step) and ``quantile_of``.  Selection, windowing and
the range functions are its own.

The counter functions follow Prometheus' closed form rather than a fold
of reset-corrected deltas: ``increase`` is last - first plus the value
before each reset, in order (``_increase_with_resets``); ``rate`` is
that total ``* NANOS_PER_SEC / elapsed``.  On integer-valued counters
below 2**53 the two forms agree bit for bit (tests/test_perf_equivalence
pins it).  Elsewhere they may round differently, and a NaN strictly
inside a window poisons only the fold.  The closed form, like
Prometheus, does not treat that NaN as a reset, so a reset right after
it is missed and the increase can come out low or negative:
``[10, NaN, 2]`` gives -8.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import QueryError
from repro.pmag.model import METRIC_NAME_LABEL, Sample, Series
from repro.pmag.query import ops
from repro.pmag.query.engine import LOOKBACK_NS
from repro.pmag.query.functions import quantile_of
from repro.pmag.query.nodes import (
    Aggregation,
    BinaryOp,
    Comparison,
    Expr,
    FunctionCall,
    NumberLiteral,
    RangeSelector,
    VectorSelector,
)
from repro.pmag.query.ops import InstantVector, Value
from repro.pmag.query.parser import parse_query

NANOS_PER_SEC = 1_000_000_000


# ---------------------------------------------------------------------------
# Range functions over one window of samples
# ---------------------------------------------------------------------------
def _increase_with_resets(samples: Sequence[Sample]) -> float:
    """Prometheus' closed form (``extrapolatedRate`` in promql/functions.go,
    before extrapolation): last - first, then the value just before each
    counter reset, added in order.  A NaN inside the window compares false
    both ways: it is no reset and a drop right after it is none either, so
    that drop is missed and the total can come out low or negative."""
    previous = samples[0].value
    total = samples[-1].value - previous
    for sample in samples[1:]:
        if sample.value < previous:
            total += previous  # counter reset: add what it had reached
        previous = sample.value
    return total


def func_increase(samples: Sequence[Sample], range_ns: int) -> float:
    """Total counter increase over the window."""
    if len(samples) < 2:
        raise QueryError("increase() needs at least two samples")
    return _increase_with_resets(samples)


def func_rate(samples: Sequence[Sample], range_ns: int) -> float:
    """Per-second rate over the window (reset-aware)."""
    if len(samples) < 2:
        raise QueryError("rate() needs at least two samples")
    elapsed_ns = samples[-1].time_ns - samples[0].time_ns
    if elapsed_ns <= 0:
        raise QueryError("rate() window has zero duration")
    return _increase_with_resets(samples) * NANOS_PER_SEC / elapsed_ns


def func_irate(samples: Sequence[Sample], range_ns: int) -> float:
    """Instant rate from the last two samples."""
    if len(samples) < 2:
        raise QueryError("irate() needs at least two samples")
    last, previous = samples[-1], samples[-2]
    elapsed_ns = last.time_ns - previous.time_ns
    if elapsed_ns <= 0:
        raise QueryError("irate() samples share a timestamp")
    delta = last.value - previous.value
    if delta < 0:
        delta = last.value  # reset
    return delta * NANOS_PER_SEC / elapsed_ns


def func_delta(samples: Sequence[Sample], range_ns: int) -> float:
    """Gauge difference last - first (no reset handling)."""
    if len(samples) < 2:
        raise QueryError("delta() needs at least two samples")
    return samples[-1].value - samples[0].value


def func_avg_over_time(samples: Sequence[Sample], range_ns: int) -> float:
    """Mean of samples in the window."""
    return sum(s.value for s in samples) / len(samples)


def func_min_over_time(samples: Sequence[Sample], range_ns: int) -> float:
    """Minimum in the window."""
    return min(s.value for s in samples)


def func_max_over_time(samples: Sequence[Sample], range_ns: int) -> float:
    """Maximum in the window."""
    return max(s.value for s in samples)


def func_sum_over_time(samples: Sequence[Sample], range_ns: int) -> float:
    """Sum over the window."""
    return sum(s.value for s in samples)


def func_count_over_time(samples: Sequence[Sample], range_ns: int) -> float:
    """Sample count in the window."""
    return float(len(samples))


RANGE_FUNCTIONS = {
    "rate": func_rate,
    "irate": func_irate,
    "increase": func_increase,
    "delta": func_delta,
    "avg_over_time": func_avg_over_time,
    "min_over_time": func_min_over_time,
    "max_over_time": func_max_over_time,
    "sum_over_time": func_sum_over_time,
    "count_over_time": func_count_over_time,
}


# ---------------------------------------------------------------------------
# One expression at one instant
# ---------------------------------------------------------------------------
class PerInstantEvaluator:
    """Evaluates a parsed expression at one instant against a store."""

    def __init__(self, tsdb, lookback_ns: int = LOOKBACK_NS) -> None:
        self._tsdb = tsdb
        self._lookback_ns = lookback_ns

    def instant_plan(self, expr: Expr, time_ns: int) -> InstantVector:
        """``expr`` at one instant; a scalar becomes one unlabelled entry."""
        value = self._eval(expr, time_ns)
        if isinstance(value, float):
            return [(ops.EMPTY_LABELS, value)]
        return value

    def range_query_per_step(
        self, query: str, start_ns: int, end_ns: int, step_ns: int
    ) -> List[Series]:
        """The seed range evaluation: the whole expression — and a full
        select per selector — at every step; one Series per label set."""
        expr = parse_query(query)
        collected: dict = {}
        for time_ns in range(start_ns, end_ns + 1, step_ns):
            for labels, number in self.instant_plan(expr, time_ns):
                collected.setdefault(labels, []).append(Sample(time_ns, number))
        return [
            Series(labels=labels, samples=samples)
            for labels, samples in sorted(
                collected.items(), key=lambda kv: kv[0].items()
            )
        ]

    def _eval(self, expr: Expr, time_ns: int) -> Value:
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, VectorSelector):
            return self._eval_instant_selector(expr, time_ns)
        if isinstance(expr, RangeSelector):
            raise QueryError("range selector used outside a range function")
        if isinstance(expr, FunctionCall):
            return self._eval_function(expr, time_ns)
        if isinstance(expr, Aggregation):
            return ops.aggregation(expr, self._eval(expr.expr, time_ns))
        if isinstance(expr, BinaryOp):
            return ops.binary(
                expr.op,
                self._eval(expr.left, time_ns), self._eval(expr.right, time_ns),
            )
        if isinstance(expr, Comparison):
            return ops.comparison(
                expr.op,
                self._eval(expr.left, time_ns), self._eval(expr.right, time_ns),
            )
        raise QueryError(f"cannot evaluate node {expr!r}")

    def _eval_instant_selector(
        self, selector: VectorSelector, time_ns: int
    ) -> InstantVector:
        # The newest sample within lookback.
        return [
            (series.labels, series.samples[-1].value)
            for series in self._tsdb.select(
                selector.tsdb_matchers(),
                *selector.window(time_ns, self._lookback_ns),
            )
        ]

    def _eval_function(self, call: FunctionCall, time_ns: int) -> Value:
        ranged = ops.range_call(call)
        if ranged is None:
            ops.check_function(call)
            return ops.function(
                call, *[self._eval(arg, time_ns) for arg in call.args]
            )
        quantile, range_selector = ranged
        range_ns = range_selector.range_ns
        selector = range_selector.selector
        series_list = self._tsdb.select(
            selector.tsdb_matchers(), *selector.window(time_ns, range_ns)
        )
        result: InstantVector = []
        if quantile is not None:
            for series in series_list:
                values = [s.value for s in series.samples]
                result.append(
                    (series.labels.without(METRIC_NAME_LABEL),
                     quantile_of(values, quantile))
                )
            return result
        function = RANGE_FUNCTIONS[call.name]
        for series in series_list:
            try:
                value = function(series.samples, range_ns)
            except QueryError:
                continue  # not enough samples in this window; series is absent
            result.append((series.labels.without(METRIC_NAME_LABEL), value))
        return result


def range_query_per_step(
    tsdb, query: str, start_ns: int, end_ns: int, step_ns: int,
    lookback_ns: int = LOOKBACK_NS,
) -> List[Series]:
    """``PerInstantEvaluator(tsdb, lookback_ns).range_query_per_step(...)``."""
    return PerInstantEvaluator(tsdb, lookback_ns).range_query_per_step(
        query, start_ns, end_ns, step_ns
    )
