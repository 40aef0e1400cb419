"""Metric primitives with OpenMetrics semantics.

Each metric family has a name, help text and a label schema; concrete
children (one per label-value combination) hold the actual numbers.
Semantics follow the spec:

* **Counter** — monotonically non-decreasing; decrements raise;
* **Gauge** — arbitrary up/down;
* **Histogram** — cumulative buckets plus ``_sum`` and ``_count``;
* **Summary** — ``_sum`` / ``_count`` plus pre-computed quantiles.

Metric and label names are validated against the OpenMetrics grammar so a
bad exporter fails at construction, not at scrape time.
"""

from __future__ import annotations

import bisect
import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import OpenMetricsError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[str, ...]


@dataclass(frozen=True)
class Exemplar:
    """An OpenMetrics exemplar: one traced observation behind a sample.

    Rendered on the wire as ``# {trace_id="…",span_id="…"} value ts``
    after the sample value.  Counters keep the most recent exemplar;
    histograms keep one per bucket (the bucket the observation fell in),
    per the OpenMetrics spec.
    """

    labels: Tuple[Tuple[str, str], ...]
    value: float
    timestamp_s: Optional[float] = None

    @classmethod
    def of(cls, value: float, timestamp_s: Optional[float] = None,
           **labels: str) -> "Exemplar":
        """Build an exemplar from keyword labels (insertion order kept)."""
        return cls(labels=tuple(labels.items()), value=value,
                   timestamp_s=timestamp_s)

    def labels_dict(self) -> Dict[str, str]:
        """Labels as a dict."""
        return dict(self.labels)


class MetricKind(enum.Enum):
    """OpenMetrics metric families."""

    COUNTER = "counter"
    GAUGE = "gauge"
    HISTOGRAM = "histogram"
    SUMMARY = "summary"


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise OpenMetricsError(f"invalid metric name: {name!r}")
    return name


def _validate_labels(label_names: Sequence[str]) -> Tuple[str, ...]:
    for label in label_names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise OpenMetricsError(f"invalid label name: {label!r}")
    if len(set(label_names)) != len(label_names):
        raise OpenMetricsError(f"duplicate label names: {label_names}")
    return tuple(label_names)


class MetricFamily:
    """Base class: a named family of labelled children."""

    kind: MetricKind

    def __init__(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help_text = help_text
        self.label_names = _validate_labels(label_names)
        self._children: Dict[LabelValues, object] = {}
        #: Exposition text that does not change from scrape to scrape,
        #: kept for the encoder: the ``# HELP``/``# TYPE`` header under
        #: ``None`` and each child's line prefixes under its label
        #: values.  Name, help text and label schema are fixed at
        #: construction; the entries go when the children do.
        self.rendered: Dict[Optional[LabelValues], object] = {}
        # Label-less families expose their single child immediately (at its
        # zero value), as standard client libraries do — a counter that has
        # not yet been incremented still appears in the exposition.
        if not self.label_names:
            self.labels()

    def labels(self, *values: str, **kwvalues: str):
        """Get or create the child for a label-value combination."""
        if not kwvalues:
            # Positional strings naming an existing child: they are its
            # key as they stand, and the hit vouches for their count.
            try:
                child = self._children.get(values)
            except TypeError:  # an unhashable value; str() below copes
                child = None
            if child is not None:
                return child
        if values and kwvalues:
            raise OpenMetricsError("pass labels positionally or by name, not both")
        if kwvalues:
            try:
                values = tuple(kwvalues[name] for name in self.label_names)
            except KeyError as exc:
                raise OpenMetricsError(f"missing label: {exc}") from None
            if set(kwvalues) != set(self.label_names):
                raise OpenMetricsError(
                    f"labels {sorted(kwvalues)} do not match schema {self.label_names}"
                )
        if len(values) != len(self.label_names):
            raise OpenMetricsError(
                f"{self.name}: expected {len(self.label_names)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _new_child(self):
        raise NotImplementedError

    def children(self) -> Iterable[Tuple[LabelValues, object]]:
        """All (label values, child) pairs, in insertion order."""
        return self._children.items()

    def clear(self) -> None:
        """Drop all children (exporter restart)."""
        self._children.clear()
        self.rendered.clear()


class _CounterChild:
    """One counter time series."""

    def __init__(self) -> None:
        self.value = 0.0
        self.exemplar: Optional[Exemplar] = None

    def inc(self, amount: float = 1.0,
            exemplar: Optional[Exemplar] = None) -> None:
        """Increase; negative amounts violate counter semantics."""
        if amount < 0:
            raise OpenMetricsError(f"counter cannot decrease (inc by {amount})")
        self.value += amount
        if exemplar is not None:
            self.exemplar = exemplar

    def set_to(self, value: float) -> None:
        """Set to an absolute value; must not go backwards.

        Exporters mirroring an external cumulative counter (e.g. a driver's
        ``sgx_nr_evicted``) use this instead of tracking deltas themselves.
        """
        if value < self.value:
            raise OpenMetricsError(
                f"counter cannot decrease ({self.value} -> {value})"
            )
        self.value = value


class Counter(MetricFamily):
    """Monotonically non-decreasing metric family."""

    kind = MetricKind.COUNTER

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0,
            exemplar: Optional[Exemplar] = None) -> None:
        """Increment the unlabelled child."""
        self.labels().inc(amount, exemplar=exemplar)

    @property
    def value(self) -> float:
        """Value of the unlabelled child."""
        return self.labels().value


class _GaugeChild:
    """One gauge time series."""

    def __init__(self) -> None:
        self.value = 0.0

    def set_to(self, value: float) -> None:
        """Set the gauge."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract from the gauge."""
        self.value -= amount


class Gauge(MetricFamily):
    """Arbitrary up/down metric family."""

    kind = MetricKind.GAUGE

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set_to(self, value: float) -> None:
        """Set the unlabelled child."""
        self.labels().set_to(value)

    @property
    def value(self) -> float:
        """Value of the unlabelled child."""
        return self.labels().value


DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _HistogramChild:
    """One histogram time series: cumulative buckets + sum + count."""

    def __init__(self, upper_bounds: Sequence[float]) -> None:
        self.upper_bounds = list(upper_bounds)
        self.bucket_counts = [0] * (len(self.upper_bounds) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        #: Most recent exemplar per bucket index (+Inf bucket included).
        self.exemplars: Dict[int, Exemplar] = {}

    def observe(self, value: float,
                exemplar: Optional[Exemplar] = None) -> None:
        """Record one observation (optionally carrying an exemplar)."""
        index = bisect.bisect_left(self.upper_bounds, value)
        self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1
        if exemplar is not None:
            self.exemplars[index] = exemplar

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +Inf last."""
        result = []
        running = 0
        for bound, count in zip(self.upper_bounds, self.bucket_counts):
            running += count
            result.append((bound, running))
        running += self.bucket_counts[-1]
        result.append((float("inf"), running))
        return result


class Histogram(MetricFamily):
    """Bucketed distribution family."""

    kind = MetricKind.HISTOGRAM

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        ordered = list(buckets)
        if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise OpenMetricsError(f"histogram buckets must be strictly increasing: {buckets}")
        # Set before super().__init__: the base may eagerly create a child.
        self._buckets = tuple(ordered)
        super().__init__(name, help_text, label_names)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self._buckets)

    def observe(self, value: float,
                exemplar: Optional[Exemplar] = None) -> None:
        """Observe into the unlabelled child."""
        self.labels().observe(value, exemplar=exemplar)


class _SummaryChild:
    """One summary time series with streaming quantile estimates.

    Keeps a bounded reservoir; exact for small streams, sampled beyond,
    which is the usual client-library trade-off.
    """

    RESERVOIR = 4096

    def __init__(self, quantiles: Sequence[float]) -> None:
        self.quantiles = list(quantiles)
        self.sum = 0.0
        self.count = 0
        self._window: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        if len(self._window) < self.RESERVOIR:
            self._window.append(value)
        else:
            # Deterministic decimation keeps the library seed-free here.
            index = self.count % self.RESERVOIR
            self._window[index] = value

    def quantile_values(self) -> List[Tuple[float, float]]:
        """(quantile, estimate) pairs for the configured quantiles."""
        if not self._window:
            return [(q, float("nan")) for q in self.quantiles]
        ordered = sorted(self._window)
        result = []
        for quantile in self.quantiles:
            position = min(len(ordered) - 1, int(quantile * len(ordered)))
            result.append((quantile, ordered[position]))
        return result


class Summary(MetricFamily):
    """Sum/count/quantiles family."""

    kind = MetricKind.SUMMARY
    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> None:
        for quantile in quantiles:
            if not 0.0 <= quantile <= 1.0:
                raise OpenMetricsError(f"quantile out of range: {quantile}")
        # Set before super().__init__: the base may eagerly create a child.
        self._quantiles = tuple(quantiles)
        super().__init__(name, help_text, label_names)

    def _new_child(self) -> _SummaryChild:
        return _SummaryChild(self._quantiles)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled child."""
        self.labels().observe(value)
