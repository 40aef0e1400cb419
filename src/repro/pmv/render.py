"""ASCII rendering of dashboards.

Graphs render as unicode block-height charts (one line of bars per
series), gauges as filled bars, tables with aligned columns.  The output
is what examples print and what humans inspect when running the
reproduction in a terminal.
"""

from __future__ import annotations

import math

from typing import Dict, List, Optional

from repro.pmag.model import METRIC_NAME_LABEL, Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmv.dashboard import Dashboard
from repro.pmv.panels import GaugePanel, PanelData

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 60) -> str:
    """Render values as a unicode sparkline resampled to ``width``.

    NaN values (e.g. from a ``rate()/rate()`` with a zero denominator)
    render as gaps rather than crashing the dashboard.
    """
    if not values:
        return "(no data)"
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return "(no data)"
    if len(values) > width:
        # Resample to the width by averaging fixed-size strides (NaN-aware).
        stride = len(values) / width
        resampled = []
        for index in range(width):
            lo = int(index * stride)
            hi = max(lo + 1, int((index + 1) * stride))
            chunk = [v for v in values[lo:hi] if not math.isnan(v)]
            resampled.append(
                sum(chunk) / len(chunk) if chunk else float("nan")
            )
        values = resampled
        finite = [v for v in values if not math.isnan(v)]
        if not finite:
            return "(no data)"
    low = min(finite)
    high = max(finite)
    span = high - low
    if span <= 0:
        return _BLOCKS[4] * len(values) + f"  (constant {high:g})"
    chars = []
    for value in values:
        if math.isnan(value):
            chars.append(" ")
            continue
        level = int((value - low) / span * (len(_BLOCKS) - 1))
        chars.append(_BLOCKS[level])
    return "".join(chars)


def _labels_text(labels: Labels) -> str:
    pairs = [f"{k}={v}" for k, v in labels.items() if k != METRIC_NAME_LABEL]
    return "{" + ",".join(pairs) + "}" if pairs else "{}"


def render_panel(data: PanelData, width: int = 72) -> str:
    """Render one panel snapshot to text."""
    lines = [f"── {data.title} " + "─" * max(0, width - len(data.title) - 4)]
    if data.kind == "graph":
        if not data.series:
            lines.append("  (no data)")
        for series in data.series[:8]:
            values = [sample.value for sample in series.samples]
            finite = [v for v in values if not math.isnan(v)]
            peak = max(finite) if finite else 0.0
            lines.append(f"  {_labels_text(series.labels)}  peak={peak:g} {data.unit}")
            lines.append("  " + sparkline(values, width - 4))
    elif data.kind in ("singlestat", "gauge"):
        if not data.rows:
            lines.append("  (no data)")
        for labels, value in data.rows[:4]:
            lines.append(f"  {value:g} {data.unit}  {_labels_text(labels)}")
    elif data.kind == "table":
        if not data.rows:
            lines.append("  (no data)")
        else:
            label_width = max(len(_labels_text(l)) for l, _ in data.rows)
            for labels, value in data.rows:
                lines.append(
                    f"  {_labels_text(labels):<{label_width}}  {value:>14.6g} {data.unit}"
                )
    else:
        lines.append(f"  (unknown panel kind {data.kind!r})")
    return "\n".join(lines)


def render_gauge_bar(value: float, minimum: float, maximum: float, width: int = 40) -> str:
    """A filled horizontal bar for gauge panels."""
    span = maximum - minimum
    fraction = 0.0 if span <= 0 else max(0.0, min(1.0, (value - minimum) / span))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "." * (width - filled) + f"] {value:g}"


def render_dashboard(
    dashboard: Dashboard, engine: QueryEngine, now_ns: int, width: int = 72
) -> str:
    """Render a whole dashboard at an instant."""
    header = f"═══ {dashboard.name} "
    lines = [header + "═" * max(0, width - len(header))]
    if dashboard.variables:
        variables = ", ".join(f"${k}={v}" for k, v in sorted(dashboard.variables.items()))
        lines.append(f"  filters: {variables}")
    for row in dashboard.rows:
        lines.append(f"▌ {row.title}")
        for panel in row.panels:
            data = panel.snapshot(engine, now_ns, dashboard.variables)
            lines.append(render_panel(data, width))
            if isinstance(panel, GaugePanel) and data.rows:
                for _, value in data.rows[:1]:
                    lines.append(
                        "  " + render_gauge_bar(value, panel.minimum, panel.maximum)
                    )
    if dashboard.annotations:
        lines.append("▌ annotations")
        for annotation in dashboard.annotations[-10:]:
            lines.append(
                f"  @{annotation.time_ns / 1e9:.0f}s [{annotation.severity}] {annotation.text}"
            )
    return "\n".join(lines)
