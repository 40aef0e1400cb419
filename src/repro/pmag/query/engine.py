"""Query evaluation.

Values flow through evaluation as one of:

* a ``float`` scalar,
* an **instant vector**: ``List[Tuple[Labels, float]]``,
* a **range vector**: ``List[Series]`` (only as a function argument).

Instant selectors use a 5-minute lookback (the Prometheus staleness
window): the value of a series "now" is its newest sample within lookback.

There is one evaluator, the step grid of :mod:`repro.pmag.query.grid`:
each selector's samples are selected ONCE over ``[start - window, end]``
and every plan node is evaluated once over the whole grid, series-major.
``range_query`` runs it over its steps; ``instant``/``instant_plan`` run
it over the one-step grid ``start == end == t``.  Around it sits a
**query plan cache**: an LRU of query string -> parsed AST, so rule
groups and dashboard panels that re-evaluate the same expression every
cycle stop paying the lexer/parser (ASTs are immutable, so sharing one
across evaluations is safe).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import QueryError
from repro.pmag.model import Series
from repro.pmag.query.grid import StepGrid, selector_windows
from repro.pmag.query.nodes import Expr
from repro.pmag.query.ops import InstantVector
from repro.pmag.query.parser import parse_query
from repro.pmag.tsdb import Tsdb
from repro.trace import NOOP_TRACER

LOOKBACK_NS = 5 * 60 * 1_000_000_000

#: Most steps one range query may ask for (Prometheus' limit).  Every
#: selected series materialises a cell per step, so the grid is bounded
#: before anything is selected.
MAX_GRID_STEPS = 11_000

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


def _check_range(start_ns: int, end_ns: int, step_ns: int) -> None:
    if step_ns <= 0:
        raise QueryError(f"step must be positive, got {step_ns}")
    if end_ns < start_ns:
        raise QueryError(f"bad range: {start_ns}..{end_ns}")
    steps = (end_ns - start_ns) // step_ns + 1
    if steps > MAX_GRID_STEPS:
        raise QueryError(
            f"range query asks for {steps} steps, limit is {MAX_GRID_STEPS}"
        )


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
            return self._at(self.parse(query), time_ns)
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
            return self._at(plan, time_ns)
        with self._tracer.span("query.instant", {"plan": True}):
            return self._instant_traced(plan, time_ns)

    def _instant_traced(self, expr: Expr, time_ns: int) -> InstantVector:
        with self._tracer.span("query.eval") as eval_span:
            value = self._at(expr, time_ns)
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
                result = grid.evaluate(expr)
                if eval_span.recording:
                    eval_span.set_attribute("series", len(result))
                    steps = (end_ns - start_ns) // step_ns + 1
                    eval_span.add_virtual_time(
                        EVAL_NS_PER_SERIES * max(1, len(result)) * steps
                    )
            return result

    def _at(self, expr: Expr, time_ns: int) -> InstantVector:
        """``expr`` over the one-step grid ``[time_ns]``."""
        grid = StepGrid(
            self._tsdb, self._lookback_ns,
            selector_windows(expr, self._lookback_ns),
            time_ns, time_ns, 1,
        )
        return grid.instant_vectors(expr)[0]
