"""PMAN tests: windows, thresholds, box plots, alerts, and the analysis
loop."""

import pytest

from repro.errors import AnalysisError
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.pman.alerts import AlertManager, AlertSeverity
from repro.pman.analyzer import PmanAnalyzer, default_sgx_rules
from repro.pman.boxplot import BoxPlot
from repro.pman.thresholds import ThresholdRule
from repro.pman.window import SlidingWindow
from repro.simkernel.clock import VirtualClock, seconds


def _engine_with_gauge(values, step_s=15):
    tsdb = Tsdb()
    for index, value in enumerate(values):
        tsdb.append_sample("g", (index + 1) * seconds(step_s), float(value))
    return QueryEngine(tsdb), len(values) * seconds(step_s)


# ---------------------------------------------------------------------------
# SlidingWindow
# ---------------------------------------------------------------------------
def test_window_evaluates_trailing_range():
    engine, now = _engine_with_gauge(range(40))
    window = SlidingWindow(engine, "g", window_ns=seconds(300), step_ns=seconds(15))
    result = window.evaluate(now)
    values = result.all_values()
    assert len(values) == 21  # 300/15 + 1
    assert values[-1] == 39.0


def test_window_validation():
    engine, _now = _engine_with_gauge([1])
    with pytest.raises(AnalysisError):
        SlidingWindow(engine, "g", window_ns=0)
    with pytest.raises(AnalysisError):
        SlidingWindow(engine, "g", window_ns=10, step_ns=20)


# ---------------------------------------------------------------------------
# ThresholdRule
# ---------------------------------------------------------------------------
def test_rule_fires_on_latest_value():
    engine, now = _engine_with_gauge([1, 1, 1, 100])
    rule = ThresholdRule(name="High", query="g", op=">", threshold=50.0)
    window = SlidingWindow(engine, "g").evaluate(now)
    violations = rule.check(window)
    assert len(violations) == 1
    assert violations[0].value == 100.0
    assert "High" in violations[0].message


def test_rule_quiet_when_latest_recovers():
    engine, now = _engine_with_gauge([100, 100, 1])
    rule = ThresholdRule(name="High", query="g", op=">", threshold=50.0)
    window = SlidingWindow(engine, "g").evaluate(now)
    assert rule.check(window) == []


def test_rule_sustained_fraction():
    engine, now = _engine_with_gauge([1, 1, 1, 1, 100])
    rule = ThresholdRule(
        name="Sustained", query="g", op=">", threshold=50.0,
        sustained_fraction=0.5,
    )
    window = SlidingWindow(engine, "g").evaluate(now)
    assert rule.check(window) == []  # only 1 of N points breaks it


def test_rule_operators():
    engine, now = _engine_with_gauge([5])
    window = SlidingWindow(engine, "g").evaluate(now)
    assert ThresholdRule("a", "g", "<", 10).check(window)
    assert ThresholdRule("b", "g", ">=", 5).check(window)
    assert ThresholdRule("c", "g", "<=", 5).check(window)
    assert not ThresholdRule("d", "g", ">", 5).check(window)


def test_rule_validation():
    with pytest.raises(AnalysisError):
        ThresholdRule("bad", "g", "!!", 1)
    with pytest.raises(AnalysisError):
        ThresholdRule("bad", "g", ">", 1, sustained_fraction=2.0)


# ---------------------------------------------------------------------------
# BoxPlot
# ---------------------------------------------------------------------------
def test_boxplot_five_numbers():
    box = BoxPlot.from_values([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert box.minimum == 1
    assert box.maximum == 9
    assert box.median == 5
    assert box.q1 == 3 and box.q3 == 7
    assert box.iqr == 4
    assert box.count == 9
    assert box.outliers == ()


def test_boxplot_outliers_beyond_fences():
    box = BoxPlot.from_values([10, 11, 12, 13, 14, 100])
    assert 100 in box.outliers
    assert box.whisker_high <= 14


def test_boxplot_empty_rejected():
    with pytest.raises(AnalysisError):
        BoxPlot.from_values([])


def test_boxplot_render_constant_and_spread():
    assert "constant" in BoxPlot.from_values([5, 5, 5]).render()
    rendered = BoxPlot.from_values(list(range(100))).render(width=40)
    assert "#" in rendered and "=" in rendered


# ---------------------------------------------------------------------------
# AlertManager
# ---------------------------------------------------------------------------
def test_alert_fire_resolve_lifecycle():
    manager = AlertManager()
    labels = Labels.of("alert", instance="h")
    alert = manager.fire("Rule", labels, AlertSeverity.WARNING, "msg", now_ns=10)
    assert alert.active
    assert manager.active_alerts() == [alert]
    resolved = manager.resolve("Rule", labels, now_ns=20)
    assert resolved is alert
    assert not alert.active
    assert alert.resolved_at_ns == 20
    assert manager.active_alerts() == []


def test_alert_dedup_while_active():
    manager = AlertManager()
    labels = Labels.of("alert")
    first = manager.fire("R", labels, AlertSeverity.INFO, "m", now_ns=1, value=5)
    second = manager.fire("R", labels, AlertSeverity.INFO, "m", now_ns=2, value=9)
    assert first is second
    assert first.value == 9  # refreshed
    assert len(manager.history()) == 1


def test_alert_resolve_absent():
    manager = AlertManager()
    a = Labels.of("alert", host="a")
    b = Labels.of("alert", host="b")
    manager.fire("R", a, AlertSeverity.INFO, "m", now_ns=1)
    manager.fire("R", b, AlertSeverity.INFO, "m", now_ns=1)
    resolved = manager.resolve_absent("R", still_firing=[a], now_ns=5)
    assert [r.labels for r in resolved] == [b]
    assert len(manager.active_alerts()) == 1


def test_alert_log_sink_records_events():
    manager = AlertManager()
    labels = Labels.of("alert")
    manager.fire("R", labels, AlertSeverity.CRITICAL, "trouble", now_ns=1)
    manager.resolve("R", labels, now_ns=2)
    assert any("FIRE" in line for line in manager.log)
    assert any("RESOLVE" in line for line in manager.log)


def test_resolve_inactive_returns_none():
    manager = AlertManager()
    assert manager.resolve("R", Labels.of("a"), now_ns=1) is None


def test_severity_parse():
    assert AlertSeverity.parse("WARNING") is AlertSeverity.WARNING
    with pytest.raises(ValueError):
        AlertSeverity.parse("nonsense")


# ---------------------------------------------------------------------------
# PmanAnalyzer
# ---------------------------------------------------------------------------
def _analyzer_setup(values):
    clock = VirtualClock()
    tsdb = Tsdb()
    for index, value in enumerate(values):
        tsdb.append_sample("sgx_epc_free_pages", (index + 1) * seconds(15), value)
    clock.advance((len(values) + 1) * seconds(15))
    engine = QueryEngine(tsdb)
    return clock, engine


def test_analyzer_fires_and_resolves_alerts():
    clock, engine = _analyzer_setup([100.0] * 20)  # below the 512 threshold
    analyzer = PmanAnalyzer(clock, engine, rules=[
        ThresholdRule("EpcNearlyFull", "sgx_epc_free_pages", "<", 512.0),
    ], boxplot_queries=["sgx_epc_free_pages"])
    report = analyzer.analyze_once()
    assert len(report.violations) == 1
    assert len(analyzer.alerts.active_alerts()) == 1
    assert "sgx_epc_free_pages" in report.boxplots


def test_analyzer_periodic_cadence():
    clock, engine = _analyzer_setup([10_000.0] * 30)
    analyzer = PmanAnalyzer(
        clock, engine, rules=default_sgx_rules(), every_ns=seconds(60)
    )
    analyzer.start()
    clock.advance(seconds(5 * 60))
    analyzer.stop()
    assert len(analyzer.reports) == 5
    clock.advance(seconds(120))
    assert len(analyzer.reports) == 5  # stopped


def test_analyzer_start_twice_rejected():
    clock, engine = _analyzer_setup([1.0])
    analyzer = PmanAnalyzer(clock, engine)
    analyzer.start()
    with pytest.raises(AnalysisError):
        analyzer.start()


def test_default_rules_cover_paper_bottlenecks():
    names = {rule.name for rule in default_sgx_rules()}
    assert {"ClockGettimeDominance", "EpcEvictionPressure",
            "ContextSwitchStorm", "TargetDown"} <= names
