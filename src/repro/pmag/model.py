"""Series, samples and label matchers."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import TsdbError

#: Reserved label carrying the metric name, as in Prometheus.
METRIC_NAME_LABEL = "__name__"


class Labels:
    """An immutable, hashable label set (including ``__name__``)."""

    __slots__ = ("_pairs", "_map", "_hash", "_derived")

    def __init__(self, mapping: Mapping[str, str]) -> None:
        for name, value in mapping.items():
            if not isinstance(name, str) or not isinstance(value, str):
                raise TsdbError(f"labels must be str->str, got {name!r}={value!r}")
        self._pairs: Tuple[Tuple[str, str], ...] = tuple(sorted(mapping.items()))
        self._map: Dict[str, str] = dict(self._pairs)
        self._hash = hash(self._pairs)
        # Memoised results of without()/keep_only(): query evaluation
        # derives the same label subsets from the same instance at every
        # step, and the key population (drop/keep argument tuples) is
        # bounded by the query set, so this never grows past a handful.
        self._derived: Optional[Dict[Tuple[str, ...], "Labels"]] = None

    @staticmethod
    def of(metric: str, **labels: str) -> "Labels":
        """Build a label set for a metric.

        The positional parameter is called ``metric`` (not ``name``) so
        that ``name`` stays available as a keyword label — it is the most
        common label in this system (syscall names).
        """
        mapping = dict(labels)
        mapping[METRIC_NAME_LABEL] = metric
        return Labels(mapping)

    @property
    def metric_name(self) -> str:
        """The ``__name__`` label (empty if absent)."""
        return self.get(METRIC_NAME_LABEL, "")

    def get(self, name: str, default: str = "") -> str:
        """Value of one label."""
        return self._map.get(name, default)

    def has(self, name: str) -> bool:
        """Whether the label is present."""
        return name in self._map

    def items(self) -> Tuple[Tuple[str, str], ...]:
        """All (name, value) pairs, sorted by name."""
        return self._pairs

    def without(self, *names: str) -> "Labels":
        """Copy with the given labels removed."""
        key = ("-",) + names
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        derived = cache.get(key)
        if derived is None:
            drop = set(names)
            derived = Labels({k: v for k, v in self._pairs if k not in drop})
            cache[key] = derived
        return derived

    def keep_only(self, names: Iterable[str]) -> "Labels":
        """Copy keeping only the given labels (``by (...)`` grouping)."""
        key = ("+",) + tuple(names)
        cache = self._derived
        if cache is None:
            cache = self._derived = {}
        derived = cache.get(key)
        if derived is None:
            keep = set(key[1:])
            derived = Labels({k: v for k, v in self._pairs if k in keep})
            cache[key] = derived
        return derived

    def with_label(self, name: str, value: str) -> "Labels":
        """Copy with one label added or replaced."""
        mapping = dict(self._pairs)
        mapping[name] = value
        return Labels(mapping)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Labels) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ",".join(f'{k}="{v}"' for k, v in self._pairs if k != METRIC_NAME_LABEL)
        return f"{self.metric_name}{{{inner}}}"


class Sample(NamedTuple):
    """One (timestamp, value) point.  Timestamps are virtual nanoseconds.

    A ``NamedTuple`` rather than a frozen dataclass: query results
    materialise one instance per (series, step) cell, so construction
    cost is a measurable slice of every range evaluation, and tuple
    construction is roughly half the cost of a frozen dataclass's
    ``object.__setattr__`` per field.  Field access, equality, and the
    ``repr`` format are unchanged.
    """

    time_ns: int
    value: float


#: ``(t, v) -> Sample(t, v)`` as a C-level callable: ``map`` it over a
#: ``zip`` of two columns and no Python frame runs per sample.
sample_of = partial(tuple.__new__, Sample)


class MatchOp:
    """Label matcher operators."""

    EQ = "="
    NE = "!="
    RE = "=~"
    NRE = "!~"


@dataclass(frozen=True)
class Matcher:
    """One label matcher, e.g. ``process=~"redis.*"``."""

    name: str
    op: str
    value: str
    _compiled: Optional[re.Pattern] = field(default=None, compare=False, hash=False)

    @staticmethod
    def eq(name: str, value: str) -> "Matcher":
        """Equality matcher."""
        return Matcher(name, MatchOp.EQ, value)

    @staticmethod
    def ne(name: str, value: str) -> "Matcher":
        """Inequality matcher."""
        return Matcher(name, MatchOp.NE, value)

    @staticmethod
    def regex(name: str, value: str) -> "Matcher":
        """Regex matcher (fully anchored, as in PromQL)."""
        return Matcher(name, MatchOp.RE, value, re.compile(f"^(?:{value})$"))

    @staticmethod
    def not_regex(name: str, value: str) -> "Matcher":
        """Negated regex matcher."""
        return Matcher(name, MatchOp.NRE, value, re.compile(f"^(?:{value})$"))

    def matches(self, labels: Labels) -> bool:
        """Whether a label set satisfies this matcher."""
        actual = labels.get(self.name, "")
        if self.op == MatchOp.EQ:
            return actual == self.value
        if self.op == MatchOp.NE:
            return actual != self.value
        pattern = self._compiled or re.compile(f"^(?:{self.value})$")
        if self.op == MatchOp.RE:
            return pattern.match(actual) is not None
        if self.op == MatchOp.NRE:
            return pattern.match(actual) is None
        raise TsdbError(f"unknown matcher op: {self.op}")


@dataclass
class Series:
    """A resolved series: labels plus its samples in a window."""

    labels: Labels
    samples: List[Sample] = field(default_factory=list)
