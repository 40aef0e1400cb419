"""Render a collector registry to OpenMetrics exposition text."""

from __future__ import annotations

import math
from typing import List, Mapping, Tuple

from typing import Optional

from repro.openmetrics.registry import CollectorRegistry
from repro.openmetrics.types import (
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricFamily,
    MetricKind,
    Summary,
)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(names: Tuple[str, ...], values: Tuple[str, ...],
                  extra: Mapping[str, str] = ()) -> str:
    """Format a label set as ``{a="x",b="y"}`` (empty string when none)."""
    pairs = list(zip(names, values))
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _exemplar_suffix(exemplar: Optional[Exemplar]) -> str:
    """The ``# {labels} value ts`` tail, empty when there is no exemplar.

    Exemplar-less lines stay byte-identical to the wire format without
    exemplar support — the suffix is strictly additive.
    """
    if exemplar is None:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in exemplar.labels
    )
    suffix = f" # {{{inner}}} {_format_value(exemplar.value)}"
    if exemplar.timestamp_s is not None:
        suffix += f" {_format_value(exemplar.timestamp_s)}"
    return suffix


def _line_prefixes(family: MetricFamily, values: Tuple[str, ...], child):
    """Everything of a child's lines that precedes the value.

    A counter or gauge has one line; a histogram one per bucket plus
    ``_sum`` and ``_count``; a summary one per quantile plus the same.
    """
    name, label_names = family.name, family.label_names
    plain = format_labels(label_names, values)
    if family.kind in (MetricKind.COUNTER, MetricKind.GAUGE):
        return f"{name}{plain} "
    if family.kind is MetricKind.HISTOGRAM:
        extra, suffix = "le", "_bucket"
        marks = child.upper_bounds + [float("inf")]
    else:
        extra, suffix = "quantile", ""
        marks = child.quantiles
    split = [
        f"{name}{suffix}"
        f"{format_labels(label_names + (extra,), values + (_format_value(mark),))} "
        for mark in marks
    ]
    return split, f"{name}_sum{plain} ", f"{name}_count{plain} "


def encode_family(family: MetricFamily) -> str:
    """Encode one family, with # HELP and # TYPE headers.

    The headers and each child's ``name{labels} `` prefixes are rendered
    once and kept in :attr:`MetricFamily.rendered`; a scrape formats
    only the values.
    """
    rendered = family.rendered
    header = rendered.get(None)
    if header is None:
        header = rendered[None] = (
            f"# HELP {family.name} {family.help_text}\n"
            f"# TYPE {family.name} {family.kind.value}"
        )
    lines: List[str] = [header]
    kind = family.kind
    for values, child in family.children():
        prefixes = rendered.get(values)
        if prefixes is None:
            prefixes = rendered[values] = _line_prefixes(family, values, child)
        if kind is MetricKind.COUNTER or kind is MetricKind.GAUGE:
            exemplar = _exemplar_suffix(getattr(child, "exemplar", None))
            lines.append(f"{prefixes}{_format_value(child.value)}{exemplar}")
            continue
        split, sum_prefix, count_prefix = prefixes
        if kind is MetricKind.HISTOGRAM:
            for index, (prefix, (_bound, cumulative)) in enumerate(
                    zip(split, child.cumulative_buckets())):
                exemplar = _exemplar_suffix(child.exemplars.get(index))
                lines.append(f"{prefix}{cumulative}{exemplar}")
        else:
            for prefix, (_quantile, estimate) in zip(
                    split, child.quantile_values()):
                if not math.isnan(estimate):
                    lines.append(f"{prefix}{_format_value(estimate)}")
        lines.append(f"{sum_prefix}{_format_value(child.sum)}")
        lines.append(f"{count_prefix}{child.count}")
    return "\n".join(lines)


def encode_registry(registry: CollectorRegistry) -> str:
    """Encode a whole registry; ends with the OpenMetrics EOF marker."""
    sections = [encode_family(family) for family in registry.collect()]
    sections.append("# EOF")
    return "\n".join(sections) + "\n"
