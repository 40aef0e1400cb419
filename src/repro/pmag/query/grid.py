"""Step-grid evaluation: each plan node once per query, not per step.

A query evaluates one expression at every step of a grid — the steps of
a range query, or the single step ``start == end == t`` of an instant.
Here a node is evaluated ONCE over the whole grid and yields one of:

* a ``float`` — scalars are constant across steps;
* a **grid vector** ``[(labels, column)]`` — series-major, one cell per
  step, ``None`` where the series is absent at that step.  Entry order
  equals the order a per-instant evaluation (``tests/query_oracle.py``)
  would list the present series in at every step, so order-sensitive
  consumers (float sums) accumulate in the same order and every result
  is bit-identical to it;
* :class:`StepRows` — step-major, one instant vector per step, for the
  nodes with no column form (``topk``/``bottomk`` order by value per
  step, ``histogram_quantile``, ``absent``) and everything above them.
  They run the per-instant operator of :mod:`repro.pmag.query.ops` on
  each transposed row rather than having a second implementation.

Leaves go series-major: every selector is bulk-selected once over
``[start - window, end]``, one hinted boundary sweep per distinct
timeline locates all windows, and each series' column comes from a
column-native range function over slices of its arrays.  All state lives
on the :class:`StepGrid` of one query; nothing is cached across queries.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from operator import is_not
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import QueryError
from repro.pmag.model import (
    Labels, METRIC_NAME_LABEL, Sample, Series, sample_of,
)
from repro.pmag.query import ops
from repro.pmag.query.functions import (
    COLUMN_RANGE_FUNCTIONS,
    TimelineMemo,
    quantile_of,
    window_bounds,
    window_reducer,
)
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

Column = List[Optional[float]]
GridVector = List[Tuple[Labels, Column]]


#: ``v -> v is not None`` as a C-level callable: with ``sample_of``,
#: cells are filtered and samples built without a Python frame per cell.
_present = partial(is_not, None)


def _compact(items, cells) -> list:
    """``items`` at the positions whose cell is present."""
    return list(compress(items, map(_present, cells)))


class StepRows(list):
    """Step-major value: the instant vector of every step, in step order."""


GridValue = Union[float, GridVector, StepRows]


def selector_windows(
    expr: Expr, lookback_ns: int,
    windows: Optional[Dict[VectorSelector, int]] = None,
) -> Dict[VectorSelector, int]:
    """Per distinct selector in ``expr``, the widest trailing window it reads.

    Instant uses need ``lookback_ns`` of history; range uses need their
    ``range_ns``.  The same selector appearing in both contexts gets the
    maximum, so one bulk select can serve every occurrence.
    """
    if windows is None:
        windows = {}
    if isinstance(expr, VectorSelector):
        windows[expr] = max(windows.get(expr, 0), lookback_ns)
    elif isinstance(expr, RangeSelector):
        selector = expr.selector
        windows[selector] = max(windows.get(selector, 0), expr.range_ns)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            selector_windows(arg, lookback_ns, windows)
    elif isinstance(expr, Aggregation):
        selector_windows(expr.expr, lookback_ns, windows)
    elif isinstance(expr, (BinaryOp, Comparison)):
        selector_windows(expr.left, lookback_ns, windows)
        selector_windows(expr.right, lookback_ns, windows)
    return windows


def series_from_rows(step_times: Iterable[int], rows: Iterable) -> List[Series]:
    """One Series per label set from per-step instant vectors."""
    collected: Dict[Labels, List[Sample]] = {}
    for time_ns, vector in zip(step_times, rows):
        for labels, number in vector:
            collected.setdefault(labels, []).append(Sample(time_ns, number))
    return [
        Series(labels=labels, samples=samples)
        for labels, samples in sorted(
            collected.items(), key=lambda kv: kv[0].items()
        )
    ]


def _map_cells(vector: GridVector, cell) -> GridVector:
    return [
        (labels, [None if v is None else cell(v) for v in column])
        for labels, column in vector
    ]


def _match_cells(
    left: GridVector, right: GridVector, cell, keep_name: bool
) -> GridVector:
    """Vector/vector matching on identical label sets sans ``__name__``."""
    right_index = {
        labels.without(METRIC_NAME_LABEL): column for labels, column in right
    }
    result: GridVector = []
    for labels, column in left:
        key = labels.without(METRIC_NAME_LABEL)
        other = right_index.get(key)
        if other is not None:
            result.append((labels if keep_name else key, [
                None if a is None or b is None else cell(a, b)
                for a, b in zip(column, other)
            ]))
    return result


def _last_in_window(times, los, his, spans):
    """``prepare`` of an instant selector: the newest value in lookback."""
    def column(values):
        return [
            values[hi - 1] if lo < hi else None for lo, hi in zip(los, his)
        ]
    return column


class StepGrid:
    """One query's step grid, bulk selections, and evaluator."""

    def __init__(
        self, tsdb, lookback_ns: int, windows: Dict[VectorSelector, int],
        start_ns: int, end_ns: int, step_ns: int,
    ) -> None:
        """Bulk-select every selector of ``windows`` (a
        :func:`selector_windows` result) over the whole query range."""
        self._lookback_ns = lookback_ns
        self.step_times = list(range(start_ns, end_ns + 1, step_ns))
        # (labels, timestamps, values) per matched series, sorted by labels.
        self._raw = {
            selector: tsdb.select_arrays(
                selector.tsdb_matchers(),
                selector.window(start_ns, window_ns)[0],
                selector.window(end_ns, window_ns)[1],
            )
            for selector, window_ns in windows.items()
        }

    @property
    def series_selected(self) -> int:
        """Raw series fetched over all selectors."""
        return sum(len(arrays) for arrays in self._raw.values())

    def evaluate(self, expr: Expr) -> List[Series]:
        """The range-query result: one Series per label set, sorted."""
        value = self._eval(expr)
        step_times = self.step_times
        if isinstance(value, StepRows):
            return series_from_rows(step_times, value)
        if isinstance(value, float):
            value = [(ops.EMPTY_LABELS, [value] * len(step_times))]
        result: List[Series] = []
        for labels, column in sorted(value, key=lambda entry: entry[0].items()):
            samples = list(map(
                sample_of, _compact(zip(step_times, column), column)
            ))
            if samples:
                result.append(Series(labels=labels, samples=samples))
        return result

    def instant_vectors(self, expr: Expr) -> List[ops.InstantVector]:
        """``expr`` as one instant vector per step, in evaluation order;
        a scalar becomes one unlabelled entry."""
        value = self._eval(expr)
        if isinstance(value, float):
            return [[(ops.EMPTY_LABELS, value)] for _ in self.step_times]
        return self._rows(value)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr) -> GridValue:
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, VectorSelector):
            return self._leaf(
                expr, self._windows(expr, self._lookback_ns),
                _last_in_window, keep_name=True,
            )
        if isinstance(expr, RangeSelector):
            raise QueryError("range selector used outside a range function")
        if isinstance(expr, FunctionCall):
            return self._function(expr)
        if isinstance(expr, Aggregation):
            return self._aggregation(expr)
        if isinstance(expr, BinaryOp):
            return self._binary(expr)
        if isinstance(expr, Comparison):
            return self._comparison(expr)
        raise QueryError(f"cannot evaluate node {expr!r}")

    def _rows(self, value: GridValue) -> list:
        """Any grid value as one per-instant value per step."""
        if isinstance(value, StepRows):
            return value
        steps = len(self.step_times)
        if isinstance(value, float):
            return [value] * steps
        if not value:
            return [[] for _ in range(steps)]
        names = [labels for labels, _column in value]
        return [
            _compact(zip(names, row), row)
            for row in zip(*[column for _labels, column in value])
        ]

    def _per_step(self, operator, *values: GridValue) -> StepRows:
        """A per-instant operator applied at every step."""
        return StepRows(map(operator, *map(self._rows, values)))

    def _windows(self, selector: VectorSelector, window_ns: int):
        """The inclusive ``(low, high)`` sample window of every step."""
        return [selector.window(t, window_ns) for t in self.step_times]

    def _leaf(
        self, selector: VectorSelector, windows, prepare,
        keep_name: bool = False,
    ) -> GridVector:
        """One column per selected series: ``prepare`` over its windows."""
        memo = TimelineMemo(
            lambda times: prepare(times, *window_bounds(times, windows))
        )
        return [
            (labels if keep_name else labels.without(METRIC_NAME_LABEL),
             memo.get(times)(values))
            for labels, times, values in self._raw[selector]
        ]

    def _function(self, call: FunctionCall) -> GridValue:
        ranged = ops.range_call(call)
        if ranged is not None:
            return self._range_function(call.name, *ranged)
        ops.check_function(call)
        args = [self._eval(arg) for arg in call.args]
        if call.name in ("histogram_quantile", "absent") or any(
            isinstance(arg, StepRows) for arg in args
        ):
            return self._per_step(partial(ops.function, call), *args)
        value = args[0]
        cell = ops.cell_function(call.name, *args[1:])
        if isinstance(value, float):
            return cell(value)
        return _map_cells(value, cell)

    def _range_function(
        self, name: str, quantile: Optional[float],
        range_selector: RangeSelector,
    ) -> GridVector:
        if quantile is None:
            prepare = COLUMN_RANGE_FUNCTIONS[name]
        else:
            prepare = window_reducer(
                lambda window: quantile_of(window, quantile)
            )
        selector = range_selector.selector
        windows = self._windows(selector, range_selector.range_ns)
        return self._leaf(selector, windows, prepare)

    def _aggregation(self, node: Aggregation) -> GridValue:
        value = self._eval(node.expr)
        ops.check_aggregation(node, value)
        if isinstance(value, StepRows) or node.op in ("topk", "bottomk"):
            return self._per_step(partial(ops.aggregation, node), value)
        groups: Dict[Labels, List[Column]] = {}
        for labels, column in value:
            groups.setdefault(ops.group_key(node, labels), []).append(column)
        reduce_group = ops.reducer(node.op)
        result: GridVector = []
        for key in sorted(groups, key=Labels.items):
            result.append((key, [
                reduce_group(numbers) if (numbers := _compact(row, row))
                else None
                for row in zip(*groups[key])
            ]))
        return result

    def _binary(self, node: BinaryOp) -> GridValue:
        left, right = self._eval(node.left), self._eval(node.right)
        apply = ops.arithmetic(node.op)
        if isinstance(left, float) and isinstance(right, float):
            return apply(left, right)
        if isinstance(left, StepRows) or isinstance(right, StepRows):
            return self._per_step(partial(ops.binary, node.op), left, right)
        if isinstance(left, float):
            return _map_cells(right, lambda v: apply(left, v))
        if isinstance(right, float):
            return _map_cells(left, lambda v: apply(v, right))
        return _match_cells(left, right, apply, keep_name=False)

    def _comparison(self, node: Comparison) -> GridValue:
        left, right = self._eval(node.left), self._eval(node.right)
        holds = ops.comparator(node.op)
        if isinstance(left, float) and isinstance(right, float):
            return 1.0 if holds(left, right) else 0.0
        if isinstance(left, StepRows) or isinstance(right, StepRows):
            return self._per_step(
                partial(ops.comparison, node.op), left, right
            )
        if isinstance(right, float):
            return _map_cells(left, lambda v: v if holds(v, right) else None)
        if isinstance(left, float):
            return _map_cells(right, lambda v: v if holds(left, v) else None)
        return _match_cells(
            left, right, lambda a, b: a if holds(a, b) else None,
            keep_name=True,
        )
