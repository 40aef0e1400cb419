"""Collector registry: the set of metric families an exporter exposes."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import OpenMetricsError
from repro.openmetrics.types import Counter, Gauge, Histogram, MetricFamily


class CollectorRegistry:
    """Holds metric families and optional collect-time callbacks.

    Callbacks registered with :meth:`on_collect` run before every encode,
    which is how exporters that mirror external state (driver counters,
    ``/proc`` files) refresh their gauges at scrape time — the pull model
    of the paper.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collect_callbacks: List[Callable[[], None]] = []

    def register(self, family: MetricFamily) -> MetricFamily:
        """Add a family; duplicate names are an error."""
        if family.name in self._families:
            raise OpenMetricsError(f"metric already registered: {family.name}")
        self._families[family.name] = family
        return family

    def unregister(self, name: str) -> None:
        """Remove a family."""
        if name not in self._families:
            raise OpenMetricsError(f"metric not registered: {name}")
        del self._families[name]

    def get(self, name: str) -> MetricFamily:
        """Look up a family by name."""
        try:
            return self._families[name]
        except KeyError:
            raise OpenMetricsError(f"metric not registered: {name}") from None

    def families(self) -> Iterable[MetricFamily]:
        """All families in registration order."""
        return list(self._families.values())

    def on_collect(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` before every collection."""
        self._collect_callbacks.append(callback)

    def collect(self) -> Iterable[MetricFamily]:
        """Refresh via callbacks, then yield families."""
        for callback in self._collect_callbacks:
            callback()
        return self.families()

    # Convenience constructors -----------------------------------------
    def counter(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> Counter:
        """Create and register a Counter."""
        return self.register(Counter(name, help_text, label_names))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str, label_names: Sequence[str] = ()) -> Gauge:
        """Create and register a Gauge."""
        return self.register(Gauge(name, help_text, label_names))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Create and register a Histogram."""
        if buckets is None:
            return self.register(Histogram(name, help_text, label_names))  # type: ignore[return-value]
        return self.register(Histogram(name, help_text, label_names, buckets))  # type: ignore[return-value]
