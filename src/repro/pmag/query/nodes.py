"""Abstract syntax tree for the query language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.pmag.model import METRIC_NAME_LABEL, Matcher


class Expr:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class NumberLiteral(Expr):
    """A scalar literal."""

    value: float


@dataclass(frozen=True)
class VectorSelector(Expr):
    """Instant vector selector: metric name + matchers + optional offset."""

    metric_name: str
    matchers: Tuple[Matcher, ...] = ()
    offset_ns: int = 0

    def tsdb_matchers(self) -> List[Matcher]:
        """What to hand a TSDB select: the metric name, then the matchers."""
        return [Matcher.eq(METRIC_NAME_LABEL, self.metric_name), *self.matchers]

    def window(self, time_ns: int, trailing_ns: int) -> Tuple[int, int]:
        """Inclusive sample-time bounds read at ``time_ns``: the trailing
        window shifted back by the offset, clamped at time zero."""
        high = time_ns - self.offset_ns
        return max(0, high - trailing_ns), max(0, high)


@dataclass(frozen=True)
class RangeSelector(Expr):
    """Range vector selector: instant selector + window."""

    selector: VectorSelector
    range_ns: int


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Function application; args may be scalars or vectors per function."""

    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Aggregation(Expr):
    """sum/avg/min/max/count/topk/bottomk with optional by/without grouping.

    ``parameter`` carries topk/bottomk's k.
    """

    op: str
    expr: Expr
    grouping: Tuple[str, ...] = ()
    without: bool = False
    parameter: Optional[float] = None


@dataclass(frozen=True)
class Comparison(Expr):
    """Filtering comparison between a vector/scalar and a vector/scalar."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic between scalars and vectors."""

    op: str
    left: Expr
    right: Expr
