"""Query evaluation.

Values flow through evaluation as one of:

* a ``float`` scalar,
* an **instant vector**: ``List[Tuple[Labels, float]]``,
* a **range vector**: ``List[Series]`` (only as a function argument).

Instant selectors use a 5-minute lookback (the Prometheus staleness
window): the value of a series "now" is its newest sample within lookback.

Two hot-path optimizations live here, both behavior-preserving:

* a **query plan cache**: an LRU of query string -> parsed AST, so rule
  groups and dashboard panels that re-evaluate the same expression every
  cycle stop paying the lexer/parser (ASTs are immutable, so sharing one
  across evaluations is safe);
* **step-grid range evaluation**: ``range_query`` selects each
  selector's samples ONCE over ``[start - window, end]`` and evaluates
  every plan node once over the whole step grid, series-major
  (:mod:`repro.pmag.query.grid`), instead of running the expression —
  and a full TSDB select — per step.  The per-instant evaluator below
  (``_eval``) serves ``instant``/``instant_plan`` and the
  ``range_query_per_step`` oracle the grid is tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import accumulate
from operator import sub, truediv
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import QueryError
from repro.pmag.blocks import EMPTY_AGGREGATE, aggregate_arrays
from repro.pmag.model import Labels, METRIC_NAME_LABEL, Sample, Series
from repro.pmag.query import ops
from repro.pmag.query.functions import (
    RANGE_FUNCTIONS,
    ROLLUP_COMPOSERS,
    TimelineMemo,
    quantile_of,
    window_bounds,
)
from repro.pmag.query.grid import StepGrid, selector_windows, series_from_rows
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
from repro.pmag.tsdb import Tsdb
from repro.trace import NOOP_TRACER

LOOKBACK_NS = 5 * 60 * 1_000_000_000

#: Modelled parse cost per query character (ns) for traced evaluations.
PARSE_NS_PER_CHAR = 100
#: Modelled evaluation cost per result series (ns) for traced evaluations.
EVAL_NS_PER_SERIES = 1_000

#: Default capacity of the query plan cache.  The full dashboard + rule +
#: alert query population of a deployment is a few dozen strings; 256
#: leaves generous headroom for ad-hoc session queries.
DEFAULT_PLAN_CACHE_SIZE = 256


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time statistics of a :class:`QueryPlanCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int


class QueryPlanCache:
    """LRU cache of query string -> parsed AST.

    ASTs are trees of frozen dataclasses, so a cached plan can be shared
    freely between evaluations.  A capacity of 0 disables caching (every
    lookup is a miss) — the perf harness uses that to measure the parser.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE) -> None:
        if capacity < 0:
            raise QueryError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._plans: "OrderedDict[str, Expr]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, query: str) -> Optional[Expr]:
        """The cached plan, promoted to most-recently-used; None on miss."""
        plan = self._plans.get(query)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(query)
        self.hits += 1
        return plan

    def put(self, query: str, plan: Expr) -> None:
        """Insert a plan, evicting the least-recently-used past capacity."""
        if self.capacity == 0:
            return
        self._plans[query] = plan
        self._plans.move_to_end(query)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (statistics are kept)."""
        self._plans.clear()

    def stats(self) -> CacheStats:
        """Current counters."""
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions,
            size=len(self._plans), capacity=self.capacity,
        )


#: Aggregation operators whose result is a pure function of small
#: per-group partials — the shapes the sharded engine can push down.
_PUSHDOWN_OPS = frozenset(("sum", "avg", "min", "max", "count"))


def _pushdown_shape(expr: Expr):
    """The ``(function name, range selector, aggregation)`` of a
    pushdown-eligible expression, or None.

    Eligible: ``sum``/``avg``/``min``/``max``/``count`` — bare or with
    ``by``/``without`` grouping — directly over one composable
    ``*_over_time`` range function.  The ``rate`` family needs every raw
    sample for counter-reset detection, ``topk``/``bottomk`` need the
    full per-series vector, and anything else (raw selects, arithmetic,
    nested expressions) has no partial form — all of those keep the
    byte-exact full-merge path.
    """
    if not isinstance(expr, Aggregation) or expr.op not in _PUSHDOWN_OPS:
        return None
    if expr.parameter is not None:
        return None
    call = expr.expr
    if (
        not isinstance(call, FunctionCall)
        or call.name not in ROLLUP_COMPOSERS
        or len(call.args) != 1
        or not isinstance(call.args[0], RangeSelector)
    ):
        return None
    return call.name, call.args[0], expr


def _fold_pushdown_series(
    name: str, times, values, rollup, windows, resolution: int, slot,
    fresh: bool = False, bounds=None,
) -> None:
    """Fold one series' per-window composed values into a group slot.

    ``slot`` is four parallel per-step arrays ``(counts, totals, mins,
    maxs)`` over the composed values of the series folded so far
    (``counts[i] == 0`` marks "no series had samples at step i");
    ``fresh`` says the slot was created for this series, so every cell
    is still empty.  ``bounds`` is a precomputed :func:`window_bounds`
    over ``times`` (computed here when absent); sum/avg/count windows
    are then answered from a prefix sum in O(1) per step, and a fresh
    slot over gap-free windows is filled entirely with C-level ``map``
    passes.  Series carrying rollup buckets take the general per-window
    path, mirroring the normal read path exactly: aligned windows serve
    bucket ⊕ raw, misaligned windows fall back to the raw samples alone.
    """
    counts, totals, mins, maxs = slot
    n = len(times)
    if rollup is None:
        if bounds is None:
            bounds = window_bounds(times, windows)
        los, his, spans = bounds
        is_avg = name == "avg_over_time"
        if fresh and 0 not in spans:
            # Every window has samples and every cell is empty: fill the
            # slot with C-level maps instead of a per-window loop.
            if name == "count_over_time":
                column = list(map(float, spans))
            elif name == "sum_over_time" or is_avg:
                get = list(accumulate(values, initial=0.0)).__getitem__
                column = list(map(sub, map(get, his), map(get, los)))
                if is_avg:
                    column = list(map(truediv, column, spans))
            elif name == "min_over_time":
                column = [min(values[l:h]) for l, h in zip(los, his)]
            else:
                column = [max(values[l:h]) for l, h in zip(los, his)]
            counts[:] = [1] * len(spans)
            totals[:] = column
            mins[:] = column
            maxs[:] = column
            return
        if name == "count_over_time":
            for i, span in enumerate(spans):
                if not span:
                    continue
                value = float(span)
                if counts[i]:
                    counts[i] += 1
                    totals[i] += value
                    if value < mins[i]:
                        mins[i] = value
                    if value > maxs[i]:
                        maxs[i] = value
                else:
                    counts[i] = 1
                    totals[i] = mins[i] = maxs[i] = value
        elif name == "sum_over_time" or is_avg:
            prefix = list(accumulate(values, initial=0.0))
            for i, span in enumerate(spans):
                if not span:
                    continue
                value = prefix[his[i]] - prefix[los[i]]
                if is_avg:
                    value /= span
                if counts[i]:
                    counts[i] += 1
                    totals[i] += value
                    if value < mins[i]:
                        mins[i] = value
                    if value > maxs[i]:
                        maxs[i] = value
                else:
                    counts[i] = 1
                    totals[i] = mins[i] = maxs[i] = value
        else:  # min_over_time / max_over_time
            pick = min if name == "min_over_time" else max
            for i, span in enumerate(spans):
                if not span:
                    continue
                value = pick(values[los[i]:his[i]])
                if counts[i]:
                    counts[i] += 1
                    totals[i] += value
                    if value < mins[i]:
                        mins[i] = value
                    if value > maxs[i]:
                        maxs[i] = value
                else:
                    counts[i] = 1
                    totals[i] = mins[i] = maxs[i] = value
        return
    compose = ROLLUP_COMPOSERS[name]
    for i, (w_lo, w_hi) in enumerate(windows):
        raw = aggregate_arrays(times, values, w_lo, w_hi) if n else EMPTY_AGGREGATE
        if w_lo % resolution == 0 and w_hi % resolution == 0:
            aggregate = rollup.window_aggregate(w_lo, w_hi).merge(raw)
        else:
            aggregate = raw
        if aggregate.count == 0:
            continue
        value = compose(aggregate)
        if counts[i]:
            counts[i] += 1
            totals[i] += value
            if value < mins[i]:
                mins[i] = value
            if value > maxs[i]:
                maxs[i] = value
        else:
            counts[i] = 1
            totals[i] = mins[i] = maxs[i] = value


def _check_range(start_ns: int, end_ns: int, step_ns: int) -> None:
    if step_ns <= 0:
        raise QueryError(f"step must be positive, got {step_ns}")
    if end_ns < start_ns:
        raise QueryError(f"bad range: {start_ns}..{end_ns}")


class QueryEngine:
    """Evaluates query expressions against a :class:`Tsdb`."""

    def __init__(
        self,
        tsdb: Tsdb,
        lookback_ns: int = LOOKBACK_NS,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        tracer=None,
    ) -> None:
        self._tsdb = tsdb
        self._lookback_ns = lookback_ns
        self._plan_cache = QueryPlanCache(plan_cache_size)
        # Instant evaluation is the µs-scale hot path: its traced entry
        # points check ``tracer.enabled`` first and fall through to the
        # exact untraced code when tracing is off, so the no-op tracer
        # costs one attribute read per query.  ``range_query`` (ms-scale)
        # has one body and swaps in the no-op tracer instead.
        self._tracer = tracer if tracer is not None else NOOP_TRACER

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def parse(self, query: str) -> Expr:
        """Parse a query through the plan cache; the AST must not be mutated."""
        plan = self._plan_cache.get(query)
        if plan is None:
            plan = parse_query(query)
            self._plan_cache.put(query, plan)
        return plan

    def plan(self, query: str) -> Expr:
        """Parse through the cache, tracing the outcome when enabled.

        Identical to :meth:`parse` with tracing off; with tracing on it
        records the ``query.parse`` span (and its ``plan_cache_hit``
        attribute) exactly as :meth:`instant` would.  The rule
        evaluators pair this with :meth:`instant_plan`.
        """
        if not self._tracer.enabled:
            return self.parse(query)
        return self._parse_traced(query)

    def cache_stats(self) -> CacheStats:
        """Plan-cache statistics (exported as ``pmag_query_cache_*``)."""
        return self._plan_cache.stats()

    def clear_plan_cache(self) -> None:
        """Drop cached plans; useful after engine reconfiguration."""
        self._plan_cache.clear()

    def _parse_traced(self, query: str):
        """Parse under a ``query.parse`` span recording the cache outcome."""
        if not self._tracer.recording():
            # Inside an unsampled subtree: the span would discard
            # everything, so skip the bookkeeping entirely.
            return self.parse(query)
        hits_before = self._plan_cache.hits
        with self._tracer.span("query.parse", {"query": query}) as span:
            plan = self.parse(query)
            hit = self._plan_cache.hits > hits_before
            span.set_attribute("plan_cache_hit", hit)
            if not hit:
                span.add_virtual_time(len(query) * PARSE_NS_PER_CHAR)
        return plan

    def instant(self, query: str, time_ns: int) -> InstantVector:
        """Evaluate at one instant; scalars become a single unlabelled entry."""
        if not self._tracer.enabled or not self._tracer.recording():
            return self._instant_vector(self.parse(query), time_ns)
        with self._tracer.span("query.instant", {"query": query}):
            return self._instant_traced(self._parse_traced(query), time_ns)

    def instant_plan(self, plan: Expr, time_ns: int) -> InstantVector:
        """Evaluate a pre-parsed plan at one instant.

        The rule evaluators hold their expression's AST across cycles and
        call this instead of :meth:`instant`, skipping even the
        plan-cache lookup on the per-cycle hot path; the result is
        identical to ``instant(query, time_ns)`` for the plan's query.
        """
        if not self._tracer.enabled or not self._tracer.recording():
            return self._instant_vector(plan, time_ns)
        with self._tracer.span("query.instant", {"plan": True}):
            return self._instant_traced(plan, time_ns)

    def _instant_traced(self, expr: Expr, time_ns: int) -> InstantVector:
        with self._tracer.span("query.eval") as eval_span:
            value = self._instant_vector(expr, time_ns)
            if eval_span.recording:
                eval_span.set_attribute("series", len(value))
                eval_span.add_virtual_time(
                    EVAL_NS_PER_SERIES * max(1, len(value))
                )
        return value

    def scalar(self, query: str, time_ns: int) -> float:
        """Evaluate a query expected to yield exactly one value."""
        vector = self.instant(query, time_ns)
        if len(vector) != 1:
            raise QueryError(
                f"expected a single value from {query!r}, got {len(vector)} series"
            )
        return vector[0][1]

    def range_query(
        self, query: str, start_ns: int, end_ns: int, step_ns: int
    ) -> List[Series]:
        """Evaluate at each step in [start, end]; returns one Series per label set.

        Every selector in the expression is bulk-selected once over the
        whole range (plus its trailing window), then every plan node is
        evaluated once over the step grid.  All of a query's state lives
        on its own :class:`StepGrid`, so concurrent and re-entrant calls
        on one engine do not interfere.
        """
        tracer = self._tracer
        if not tracer.enabled or not tracer.recording():
            tracer = NOOP_TRACER
        with tracer.span("query.range", {
            "query": query, "start_ns": start_ns, "end_ns": end_ns,
            "step_ns": step_ns,
        }):
            _check_range(start_ns, end_ns, step_ns)
            expr = self._parse_traced(query)
            plan = self._pushdown_plan(expr)
            if plan is None:
                windows = selector_windows(expr, self._lookback_ns)
                with tracer.span("query.select", {
                    "selectors": len(windows),
                }) as select_span:
                    grid = StepGrid(
                        self._tsdb, self._lookback_ns, windows,
                        start_ns, end_ns, step_ns,
                    )
                    if select_span.recording:
                        series = grid.series_selected
                        select_span.set_attribute("series", series)
                        select_span.add_virtual_time(
                            EVAL_NS_PER_SERIES * max(1, series)
                        )
            with tracer.span("query.eval") as eval_span:
                if plan is None:
                    result = grid.evaluate(expr)
                else:
                    result = self._pushdown_eval(
                        plan, start_ns, end_ns, step_ns
                    )
                if eval_span.recording:
                    eval_span.set_attribute("series", len(result))
                    if plan is not None:
                        eval_span.set_attribute("pushdown", True)
                    steps = (end_ns - start_ns) // step_ns + 1
                    eval_span.add_virtual_time(
                        EVAL_NS_PER_SERIES * max(1, len(result)) * steps
                    )
            return result

    # ------------------------------------------------------------------
    # Aggregate pushdown: per-shard partials instead of a full merge
    # ------------------------------------------------------------------
    def _pushdown_plan(self, expr: Expr):
        """A pushdown plan for ``expr``, or None to take the normal path.

        Requires a sharded store (``map_shards``) and an eligible shape
        (see :func:`_pushdown_shape`); the single-shard engine and every
        ineligible query stay byte-identical to the pre-pushdown output.
        """
        map_shards = getattr(self._tsdb, "map_shards", None)
        if map_shards is None:
            return None
        shape = _pushdown_shape(expr)
        if shape is None:
            return None
        name, range_selector, aggregation = shape
        return map_shards, name, range_selector, aggregation

    def _pushdown_eval(
        self, plan, start_ns: int, end_ns: int, step_ns: int
    ) -> List[Series]:
        """Evaluate an eligible aggregation from per-shard partials.

        Each shard reduces its own series to one ``[n, total, min, max]``
        cell per (group, step) — series never span shards, so cells from
        different shards describe disjoint series sets and combine with
        ``n+n / total+total / min(min) / max(max)``.  Only those small
        partial tables cross the shard boundary; no cross-shard series
        merge happens at all.  Windows mirror the normal read path
        (inclusive bounds, offset clamped at zero, rollups engaged per
        aligned window only), so results match full-merge evaluation
        exactly for order-insensitive data; cross-series sums may
        re-associate floating-point addition.
        """
        map_shards, name, range_selector, node = plan
        tsdb = self._tsdb
        selector = range_selector.selector
        range_ns = range_selector.range_ns
        matchers = selector.tsdb_matchers()
        step_times = list(range(start_ns, end_ns + 1, step_ns))
        windows = [selector.window(t, range_ns) for t in step_times]
        low = windows[0][0]
        high = selector.window(end_ns, range_ns)[1]
        resolution = tsdb.downsample_resolution_ns
        use_rollups = bool(
            resolution and step_ns >= resolution and tsdb.has_rollups()
        )
        n_steps = len(step_times)

        def group_slot(partials, labels):
            key = ops.group_key(node, labels.without(METRIC_NAME_LABEL))
            slot = partials.get(key)
            if slot is None:
                partials[key] = slot = (
                    [0] * n_steps,
                    [0.0] * n_steps,
                    [0.0] * n_steps,
                    [0.0] * n_steps,
                )
                return slot, True
            return slot, False

        def shard_partials(shard):
            arrays = shard.select_arrays(matchers, low, high)
            rollup_map = (
                dict(shard.select_rollups(matchers, low, high))
                if use_rollups
                else {}
            )
            partials: Dict[Labels, list] = {}
            # One boundary sweep serves every same-schedule series.
            memo = TimelineMemo(lambda times: window_bounds(times, windows))
            for labels, times, values in arrays:
                rollup = rollup_map.pop(labels, None) if rollup_map else None
                slot, fresh = group_slot(partials, labels)
                bounds = memo.get(times) if rollup is None else None
                _fold_pushdown_series(
                    name, times, values, rollup, windows, resolution,
                    slot, fresh, bounds,
                )
            for labels, rollup in rollup_map.items():
                # Fully-compacted series: rollup buckets, no raw samples.
                slot, fresh = group_slot(partials, labels)
                _fold_pushdown_series(
                    name, (), (), rollup, windows, resolution,
                    slot, fresh,
                )
            return partials

        combined: Dict[Labels, tuple] = {}
        for partials in map_shards(shard_partials):
            for key, slot in partials.items():
                target = combined.get(key)
                if target is None:
                    combined[key] = slot
                    continue
                t_counts, t_totals, t_mins, t_maxs = target
                s_counts, s_totals, s_mins, s_maxs = slot
                for i, count in enumerate(s_counts):
                    if not count:
                        continue
                    if t_counts[i]:
                        t_counts[i] += count
                        t_totals[i] += s_totals[i]
                        if s_mins[i] < t_mins[i]:
                            t_mins[i] = s_mins[i]
                        if s_maxs[i] > t_maxs[i]:
                            t_maxs[i] = s_maxs[i]
                    else:
                        t_counts[i] = count
                        t_totals[i] = s_totals[i]
                        t_mins[i] = s_mins[i]
                        t_maxs[i] = s_maxs[i]
        op = node.op
        result: List[Series] = []
        for key in sorted(combined, key=lambda k: k.items()):
            counts, totals, mins, maxs = combined[key]
            if all(counts):
                # Dense group (every step populated — the common case):
                # build samples with map() and skip the per-step guard.
                if op == "sum":
                    column = totals
                elif op == "avg":
                    column = list(map(truediv, totals, counts))
                elif op == "min":
                    column = mins
                elif op == "max":
                    column = maxs
                else:  # count
                    column = list(map(float, counts))
                result.append(Series(
                    labels=key,
                    samples=list(map(Sample, step_times, column)),
                ))
                continue
            if op == "sum":
                samples = [
                    Sample(t, totals[i])
                    for i, t in enumerate(step_times) if counts[i]
                ]
            elif op == "avg":
                samples = [
                    Sample(t, totals[i] / counts[i])
                    for i, t in enumerate(step_times) if counts[i]
                ]
            elif op == "min":
                samples = [
                    Sample(t, mins[i])
                    for i, t in enumerate(step_times) if counts[i]
                ]
            elif op == "max":
                samples = [
                    Sample(t, maxs[i])
                    for i, t in enumerate(step_times) if counts[i]
                ]
            else:  # count
                samples = [
                    Sample(t, float(counts[i]))
                    for i, t in enumerate(step_times) if counts[i]
                ]
            if samples:
                result.append(Series(labels=key, samples=samples))
        tsdb.stats.pushdown_reads_total += 1
        return result

    def range_query_per_step(
        self, query: str, start_ns: int, end_ns: int, step_ns: int
    ) -> List[Series]:
        """The seed range evaluation: one full TSDB select per step.

        Kept as the reference implementation — the equivalence property
        tests and the perf harness compare :meth:`range_query` against it.
        """
        _check_range(start_ns, end_ns, step_ns)
        expr = self.parse(query)
        step_times = range(start_ns, end_ns + 1, step_ns)
        return series_from_rows(
            step_times, (self._instant_vector(expr, t) for t in step_times)
        )

    # ------------------------------------------------------------------
    # Per-instant evaluation
    # ------------------------------------------------------------------
    def _instant_vector(self, expr: Expr, time_ns: int) -> InstantVector:
        """``expr`` at one instant; a scalar becomes one unlabelled entry."""
        value = self._eval(expr, time_ns)
        if isinstance(value, float):
            return [(ops.EMPTY_LABELS, value)]
        return value

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

    def _eval_instant_selector(self, selector: VectorSelector, time_ns: int) -> InstantVector:
        # The newest sample within lookback; read as arrays so the
        # lookback is never materialised as Sample objects.
        return [
            (labels, values[-1])
            for labels, _times, values in self._tsdb.select_arrays(
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
