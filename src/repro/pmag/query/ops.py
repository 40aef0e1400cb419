"""Operators over already-evaluated instant values.

Each function takes the values of a node's children at ONE instant — a
``float`` scalar or an instant vector ``[(labels, value)]`` — and returns
the node's value.  The step-grid evaluator calls them per step for the
nodes that have no column form; the per-instant oracle in
``tests/query_oracle.py`` calls them directly.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Tuple, Union

from repro.errors import QueryError
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.query.functions import COLUMN_RANGE_FUNCTIONS
from repro.pmag.query.nodes import (
    Aggregation,
    FunctionCall,
    NumberLiteral,
    RangeSelector,
)

InstantVector = List[Tuple[Labels, float]]
Value = Union[float, InstantVector]

EMPTY_LABELS = Labels({})


def _divide(a: float, b: float) -> float:
    return float("nan") if b == 0 else a / b


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
}
_COMPARATORS = {
    ">": operator.gt, "<": operator.lt, ">=": operator.ge,
    "<=": operator.le, "==": operator.eq, "!=": operator.ne,
}
_REDUCERS = {
    "sum": sum,
    "avg": lambda numbers: sum(numbers) / len(numbers),
    "min": min,
    "max": max,
    "count": lambda numbers: float(len(numbers)),
}


def arithmetic(op: str):
    """The ``(a, b) -> float`` of a binary operator (``/`` by zero is NaN)."""
    try:
        return _ARITHMETIC[op]
    except KeyError:
        raise QueryError(f"unknown operator: {op!r}") from None


def comparator(op: str):
    """The ``(a, b) -> bool`` of a comparison operator."""
    try:
        return _COMPARATORS[op]
    except KeyError:
        raise QueryError(f"unknown comparison: {op!r}") from None


def reducer(op: str):
    """The ``numbers -> float`` of a plain aggregation operator."""
    try:
        return _REDUCERS[op]
    except KeyError:
        raise QueryError(f"unknown aggregation: {op!r}") from None


def binary(op: str, left: Value, right: Value) -> Value:
    """Arithmetic; vector/vector matches identical label sets sans name."""
    apply = arithmetic(op)
    if isinstance(left, float) and isinstance(right, float):
        return apply(left, right)
    if isinstance(left, float):
        return [(labels, apply(left, number)) for labels, number in right]
    if isinstance(right, float):
        return [(labels, apply(number, right)) for labels, number in left]
    right_index = {
        labels.without(METRIC_NAME_LABEL): number for labels, number in right
    }
    result: InstantVector = []
    for labels, number in left:
        key = labels.without(METRIC_NAME_LABEL)
        if key in right_index:
            result.append((key, apply(number, right_index[key])))
    return result


def comparison(op: str, left: Value, right: Value) -> Value:
    """Filtering comparison (PromQL semantics).

    vector-scalar keeps the vector elements where the comparison holds;
    scalar-scalar yields 1.0 / 0.0.
    """
    holds = comparator(op)
    if isinstance(left, float) and isinstance(right, float):
        return 1.0 if holds(left, right) else 0.0
    if isinstance(right, float):
        return [(labels, v) for labels, v in left if holds(v, right)]
    if isinstance(left, float):
        return [(labels, v) for labels, v in right if holds(left, v)]
    right_index = {
        labels.without(METRIC_NAME_LABEL): v for labels, v in right
    }
    return [
        (labels, v) for labels, v in left
        if labels.without(METRIC_NAME_LABEL) in right_index
        and holds(v, right_index[labels.without(METRIC_NAME_LABEL)])
    ]


def check_aggregation(node: Aggregation, value: Value) -> None:
    """Reject an aggregation whose operand or parameter cannot evaluate."""
    if isinstance(value, float):
        raise QueryError(f"{node.op}() needs a vector, got a scalar")
    if node.op in ("topk", "bottomk"):
        if node.parameter is None or node.parameter < 1:
            raise QueryError(f"{node.op}() needs a positive k")
    else:
        reducer(node.op)


def group_key(node: Aggregation, labels: Labels) -> Labels:
    """The output labels of the group ``labels`` aggregates into."""
    if node.without:
        return labels.without(METRIC_NAME_LABEL, *node.grouping)
    if node.grouping:
        return labels.keep_only(node.grouping)
    return EMPTY_LABELS


def aggregation(node: Aggregation, value: Value) -> InstantVector:
    """``sum``/``avg``/``min``/``max``/``count`` by group, ``topk``/``bottomk``."""
    check_aggregation(node, value)
    if node.op in ("topk", "bottomk"):
        ordered = sorted(
            value, key=lambda pair: pair[1], reverse=(node.op == "topk")
        )
        return ordered[:int(node.parameter)]
    groups: Dict[Labels, List[float]] = {}
    for labels, number in value:
        groups.setdefault(group_key(node, labels), []).append(number)
    reduce_group = reducer(node.op)
    result = [(key, reduce_group(numbers)) for key, numbers in groups.items()]
    result.sort(key=lambda pair: pair[0].items())
    return result


def range_call(call: FunctionCall):
    """``(quantile, range selector)`` of a call over a range vector.

    ``quantile`` is None except for ``quantile_over_time``, whose ``q``
    is range-checked here — before it meets any data; the result is None
    for the instant functions, whose arguments evaluate first.
    """
    args = call.args
    if call.name in COLUMN_RANGE_FUNCTIONS:
        if len(args) != 1 or not isinstance(args[0], RangeSelector):
            raise QueryError(f"{call.name}() takes exactly one range selector")
        return None, args[0]
    if call.name == "quantile_over_time":
        if (
            len(args) != 2
            or not isinstance(args[0], NumberLiteral)
            or not isinstance(args[1], RangeSelector)
        ):
            raise QueryError("quantile_over_time(q, selector[range]) expected")
        if not 0.0 <= args[0].value <= 1.0:
            raise QueryError(
                f"quantile_over_time: q out of range: {args[0].value}"
            )
        return args[0].value, args[1]
    return None


def check_function(call: FunctionCall) -> None:
    """Reject a malformed instant-function call before any argument runs."""
    name, args = call.name, call.args
    if name in ("abs", "absent"):
        if len(args) != 1:
            raise QueryError(f"{name}() takes one argument")
    elif name in ("clamp_min", "clamp_max"):
        if len(args) != 2:
            raise QueryError(f"{name}(vector, bound) expected")
    elif name == "histogram_quantile":
        if len(args) != 2 or not isinstance(args[0], NumberLiteral):
            raise QueryError("histogram_quantile(q, vector) expected")
        if not 0.0 <= args[0].value <= 1.0:
            raise QueryError(
                f"histogram_quantile: q out of range: {args[0].value}"
            )
    else:
        raise QueryError(f"unknown function: {name!r}")


def cell_function(name: str, bound: Value = 0.0):
    """The ``float -> float`` that ``abs``/``clamp_min``/``clamp_max`` map
    over their first argument; ``bound`` is the clamps' evaluated second."""
    if name == "abs":
        return lambda v: float(abs(v))
    if not isinstance(bound, float):
        raise QueryError(f"{name}() bound must be a scalar")
    if name == "clamp_min":
        return lambda v: max(v, bound)
    return lambda v: min(v, bound)


def function(call: FunctionCall, *args: Value) -> Value:
    """A :func:`check_function`-ed instant function over its evaluated
    arguments."""
    name, value = call.name, args[0]
    if name == "histogram_quantile":
        return histogram_quantile(value, args[1])
    if name == "absent":
        if isinstance(value, float) or value:
            return []
        return [(EMPTY_LABELS, 1.0)]
    cell = cell_function(name, *args[1:])
    if isinstance(value, float):
        return cell(value)
    return [(labels, cell(number)) for labels, number in value]


def histogram_quantile(quantile: float, vector: Value) -> InstantVector:
    """Prometheus histogram_quantile over _bucket series with `le` labels."""
    if isinstance(vector, float):
        raise QueryError("histogram_quantile() needs a vector of buckets")
    # Group bucket series by their labels sans `le`.
    groups: dict = {}
    for labels, value in vector:
        le_text = labels.get("le")
        if not le_text:
            continue
        try:
            bound = float(le_text)  # takes "+Inf" too
        except ValueError:
            continue  # unparsable bound: Prometheus skips the bucket
        key = labels.without("le", METRIC_NAME_LABEL)
        groups.setdefault(key, []).append((bound, value))
    result: InstantVector = []
    for key, buckets in groups.items():
        buckets.sort()
        if not buckets or buckets[-1][0] != float("inf"):
            continue  # malformed histogram: no +Inf bucket
        total = buckets[-1][1]
        if total <= 0:
            continue
        rank = quantile * total
        previous_bound, previous_count = 0.0, 0.0
        estimate = buckets[-1][0]
        for bound, cumulative in buckets:
            if cumulative >= rank:
                if bound == float("inf"):
                    estimate = previous_bound
                    break
                width = bound - previous_bound
                in_bucket = cumulative - previous_count
                fraction = (
                    (rank - previous_count) / in_bucket if in_bucket > 0 else 0.0
                )
                estimate = previous_bound + fraction * width
                break
            previous_bound, previous_count = bound, cumulative
        result.append((key, estimate))
    result.sort(key=lambda pair: pair[0].items())
    return result
