"""OpenMetrics: metric types, a registry, and the text exposition format.

TEEMon's exporters publish metrics "in the standard text-based format as
specified by the OpenMetrics project" (§4), which the aggregation
component scrapes and parses.  This package implements both directions:

* :mod:`repro.openmetrics.types` — Counter, Gauge and Histogram with
  label support and the usual semantic rules (counters only go up);
* :mod:`repro.openmetrics.registry` — a collector registry exporters
  expose;
* :mod:`repro.openmetrics.encoder` — render a registry to exposition text;
* :mod:`repro.openmetrics.parser` — parse exposition text back into
  samples (the aggregator's ingest path).
"""

from repro.openmetrics.encoder import encode_registry
from repro.openmetrics.parser import ParsedSample, parse_exposition
from repro.openmetrics.registry import CollectorRegistry
from repro.openmetrics.types import (
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricKind,
)

__all__ = [
    "MetricKind",
    "Counter",
    "Gauge",
    "Histogram",
    "Exemplar",
    "CollectorRegistry",
    "encode_registry",
    "parse_exposition",
    "ParsedSample",
]
