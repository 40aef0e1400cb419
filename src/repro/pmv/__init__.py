"""Performance Metrics Visualization (the paper's PMV component).

A Grafana-like dashboard model: panels bound to query-engine expressions,
grouped into dashboards, rendered to text (graphs as unicode charts,
gauges as bars, tables aligned).  The paper's §5.3 describes three canned
dashboards — SGX, Docker, and infrastructure — which ship in
:mod:`repro.pmv.dashboards` and support the frontend's process filter
(a ``$process`` template variable substituted into panel queries).
"""

from repro.pmv.alert_view import render_alert_timeline
from repro.pmv.anomaly_view import render_anomaly_timeline
from repro.pmv.dashboard import Dashboard, DashboardRow
from repro.pmv.federation_view import render_federation_timeline
from repro.pmv.panels import (
    GaugePanel,
    GraphPanel,
    Panel,
    SingleStatPanel,
    TablePanel,
)
from repro.pmv.render import render_dashboard

__all__ = [
    "render_alert_timeline",
    "render_anomaly_timeline",
    "render_federation_timeline",
    "Panel",
    "GraphPanel",
    "GaugePanel",
    "SingleStatPanel",
    "TablePanel",
    "Dashboard",
    "DashboardRow",
    "render_dashboard",
]
