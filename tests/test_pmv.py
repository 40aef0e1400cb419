"""PMV tests: panels, dashboards, rendering."""

import pytest

from repro.errors import AnalysisError
from repro.pmag.alerting import AlertInstance
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.pmv.dashboard import Dashboard
from repro.pmv.dashboards import (
    build_docker_dashboard,
    build_infra_dashboard,
    build_sgx_dashboard,
)
from repro.pmv.panels import GaugePanel, GraphPanel, SingleStatPanel, TablePanel
from repro.pmv.render import render_dashboard, render_gauge_bar, sparkline
from repro.simkernel.clock import seconds


@pytest.fixture
def engine():
    tsdb = Tsdb()
    for step in range(40):
        t = (step + 1) * seconds(15)
        tsdb.append_sample("qps", t, 100.0 + step, process="redis")
        tsdb.append_sample("qps", t, 50.0, process="nginx")
        tsdb.append_sample("free", t, 1000.0 - step)
    return QueryEngine(tsdb)


NOW = 40 * seconds(15)


def test_graph_panel_returns_series(engine):
    panel = GraphPanel("QPS", "qps", window_ns=seconds(300), step_ns=seconds(15))
    data = panel.snapshot(engine, NOW)
    assert data.kind == "graph"
    assert len(data.series) == 2
    assert all(len(s.samples) == 21 for s in data.series)


def test_singlestat_panel_first_row(engine):
    data = SingleStatPanel("Free", "free").snapshot(engine, NOW)
    assert data.kind == "singlestat"
    assert len(data.rows) == 1
    assert data.rows[0][1] == 1000.0 - 39


def test_gauge_panel_bounds_validated():
    with pytest.raises(AnalysisError):
        GaugePanel("bad", "x", minimum=10, maximum=5)


def test_table_panel_sorted_and_limited(engine):
    panel = TablePanel("Top", "qps", sort_desc=True, limit=1)
    data = panel.snapshot(engine, NOW)
    assert len(data.rows) == 1
    assert data.rows[0][1] == 100.0 + 39  # redis leads


def test_template_variable_substitution(engine):
    panel = SingleStatPanel("Filtered", 'qps{process="$process"}')
    data = panel.snapshot(engine, NOW, {"process": "nginx"})
    assert data.rows[0][1] == 50.0


def test_panel_requires_title():
    with pytest.raises(AnalysisError):
        GraphPanel("", "x")


def test_dashboard_rows_and_variables(engine):
    dashboard = Dashboard("Demo")
    dashboard.add_row("r1", [SingleStatPanel("Free", "free")])
    dashboard.set_variable("process", "redis")
    snapshots = dashboard.snapshot(engine, NOW)
    assert len(snapshots) == 1
    assert len(dashboard.panels()) == 1


def test_dashboard_alert_sink_annotates():
    dashboard = Dashboard("Demo")
    sink = dashboard.alert_sink()
    alert = AlertInstance(
        labels=Labels({"alertname": "R", "severity": "warning"}),
        active_since_ns=123,
    )
    sink([("pending", alert), ("firing", alert)], 123)
    assert len(dashboard.annotations) == 1  # pending is not annotated
    annotation = dashboard.annotations[0]
    assert (annotation.time_ns, annotation.severity) == (123, "warning")
    assert annotation.text == "firing: alertname=R,severity=warning"


def test_sparkline_shapes():
    line = sparkline([1, 2, 3, 4, 5])
    assert len(line) == 5
    assert "constant" in sparkline([5, 5, 5])
    assert sparkline([]) == "(no data)"


def test_sparkline_downsamples_to_width():
    line = sparkline(list(range(1000)), width=50)
    assert len(line) == 50


def test_gauge_bar_render():
    bar = render_gauge_bar(50, 0, 100, width=10)
    assert bar.startswith("[#####")
    assert render_gauge_bar(200, 0, 100, width=4).startswith("[####")
    assert render_gauge_bar(-5, 0, 100, width=4).startswith("[....")


def test_render_dashboard_contains_panel_titles(engine):
    dashboard = Dashboard("Demo")
    dashboard.add_row("Row", [
        GraphPanel("My Graph", "qps"),
        TablePanel("My Table", "qps"),
        GaugePanel("My Gauge", "free", minimum=0, maximum=2000),
    ])
    text = render_dashboard(dashboard, engine, NOW)
    for expected in ("Demo", "My Graph", "My Table", "My Gauge"):
        assert expected in text


def test_render_dashboard_no_data_graceful(engine):
    dashboard = Dashboard("Empty")
    dashboard.add_row("r", [GraphPanel("Missing", "does_not_exist")])
    assert "(no data)" in render_dashboard(dashboard, engine, NOW)


def test_canned_dashboards_build_and_have_rows():
    for builder in (build_sgx_dashboard, build_docker_dashboard,
                    build_infra_dashboard):
        dashboard = builder()
        assert dashboard.rows
        assert dashboard.panels()


def test_sgx_dashboard_process_filter_variable():
    dashboard = build_sgx_dashboard()
    queries = [p.query for p in dashboard.panels()]
    assert any("$process" in q for q in queries)
