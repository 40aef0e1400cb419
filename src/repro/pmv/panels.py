"""Panel types.

Each panel binds a title to a query and knows how to *snapshot* itself:
evaluate the query against the engine at a point in time and produce a
plain-data result the renderer can draw.  Queries may contain template
variables (``$process``) resolved by the owning dashboard before
evaluation, which implements the paper's process filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.pmag.model import Labels, Series
from repro.simkernel.clock import NANOS_PER_SEC

DEFAULT_GRAPH_WINDOW_NS = 5 * 60 * NANOS_PER_SEC
DEFAULT_GRAPH_STEP_NS = 15 * NANOS_PER_SEC


@dataclass
class PanelData:
    """Snapshot result: either series (graphs) or instant rows (others)."""

    title: str
    kind: str
    series: List[Series] = field(default_factory=list)
    rows: List[Tuple[Labels, float]] = field(default_factory=list)
    unit: str = ""


class Panel:
    """Base panel."""

    kind = "panel"

    def __init__(self, title: str, query: str, unit: str = "") -> None:
        if not title:
            raise AnalysisError("panel needs a title")
        self.title = title
        self.query = query
        self.unit = unit

    def resolved_query(self, variables: Dict[str, str]) -> str:
        """Substitute ``$name`` template variables into the query."""
        query = self.query
        for name, value in variables.items():
            query = query.replace(f"${name}", value)
        return query


class GraphPanel(Panel):
    """Time-series line graph over a trailing window."""

    kind = "graph"

    def __init__(
        self,
        title: str,
        query: str,
        unit: str = "",
        window_ns: int = DEFAULT_GRAPH_WINDOW_NS,
        step_ns: int = DEFAULT_GRAPH_STEP_NS,
    ) -> None:
        super().__init__(title, query, unit)
        self.window_ns = window_ns
        self.step_ns = step_ns

    def snapshot(self, engine, now_ns, variables=None):
        query = self.resolved_query(variables or {})
        series = engine.range_query(
            query, max(0, now_ns - self.window_ns), now_ns, self.step_ns
        )
        return PanelData(title=self.title, kind=self.kind, series=series, unit=self.unit)


class SingleStatPanel(Panel):
    """One big number (first series of the instant vector)."""

    kind = "singlestat"

    def snapshot(self, engine, now_ns, variables=None):
        query = self.resolved_query(variables or {})
        vector = engine.instant(query, now_ns)
        return PanelData(
            title=self.title, kind=self.kind, rows=vector[:1], unit=self.unit
        )


class GaugePanel(Panel):
    """A bounded gauge with min/max for the bar rendering."""

    kind = "gauge"

    def __init__(
        self, title: str, query: str, unit: str = "",
        minimum: float = 0.0, maximum: float = 100.0,
    ) -> None:
        super().__init__(title, query, unit)
        if maximum <= minimum:
            raise AnalysisError(f"gauge bounds inverted: [{minimum}, {maximum}]")
        self.minimum = minimum
        self.maximum = maximum

    def snapshot(self, engine, now_ns, variables=None):
        query = self.resolved_query(variables or {})
        vector = engine.instant(query, now_ns)
        return PanelData(
            title=self.title, kind=self.kind, rows=vector, unit=self.unit
        )


class TablePanel(Panel):
    """All series of an instant vector as labelled rows."""

    kind = "table"

    def __init__(self, title: str, query: str, unit: str = "",
                 sort_desc: bool = True, limit: int = 20) -> None:
        super().__init__(title, query, unit)
        self.sort_desc = sort_desc
        self.limit = limit

    def snapshot(self, engine, now_ns, variables=None):
        query = self.resolved_query(variables or {})
        vector = engine.instant(query, now_ns)
        rows = sorted(vector, key=lambda pair: pair[1], reverse=self.sort_desc)
        return PanelData(
            title=self.title, kind=self.kind, rows=rows[: self.limit], unit=self.unit
        )
