"""Dashboards: rows of panels with template variables and annotations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AnalysisError
from repro.pmag.alerting.state import (
    EVENT_FIRING,
    EVENT_RESOLVED,
    canonical_labels,
)
from repro.pmag.query.engine import QueryEngine
from repro.pmv.panels import Panel, PanelData


@dataclass
class DashboardRow:
    """One horizontal row of panels."""

    title: str
    panels: List[Panel] = field(default_factory=list)


@dataclass
class Annotation:
    """A point-in-time marker (e.g. an alert) shown on the dashboard."""

    time_ns: int
    text: str
    severity: str = "info"


class Dashboard:
    """A named collection of panel rows.

    Template variables implement the paper's frontend process filter: the
    SGX dashboard queries contain ``$process``, and
    ``set_variable("process", "redis-server")`` narrows every panel.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise AnalysisError("dashboard needs a name")
        self.name = name
        self.rows: List[DashboardRow] = []
        self.variables: Dict[str, str] = {}
        self.annotations: List[Annotation] = []

    def add_row(self, title: str, panels: List[Panel]) -> DashboardRow:
        """Append a row of panels."""
        row = DashboardRow(title=title, panels=list(panels))
        self.rows.append(row)
        return row

    def set_variable(self, name: str, value: str) -> None:
        """Set a template variable (e.g. the process filter)."""
        self.variables[name] = value

    def annotate(self, time_ns: int, text: str, severity: str = "info") -> None:
        """Add an annotation (the alert-sink integration point)."""
        self.annotations.append(Annotation(time_ns=time_ns, text=text, severity=severity))

    def alert_sink(self):
        """A rule-group alert sink: one annotation per firing or resolved
        event, at the evaluation instant, with the alert's severity."""
        def sink(events, now_ns: int) -> None:
            for kind, instance in events:
                if kind not in (EVENT_FIRING, EVENT_RESOLVED):
                    continue
                self.annotate(
                    now_ns, f"{kind}: {canonical_labels(instance.labels)}",
                    severity=instance.labels.get("severity", "info"),
                )
        return sink

    def panels(self) -> List[Panel]:
        """All panels in row order."""
        return [panel for row in self.rows for panel in row.panels]

    def snapshot(self, engine: QueryEngine, now_ns: int) -> List[PanelData]:
        """Snapshot every panel with the current variables."""
        return [
            panel.snapshot(engine, now_ns, self.variables)
            for panel in self.panels()
        ]
