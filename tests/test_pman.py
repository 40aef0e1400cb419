"""PMAN tests: box plots, the analysis loop and its alerting rules."""

import math

import pytest

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.errors import AnalysisError
from repro.frameworks import SconeRuntime
from repro.pmag.alerting import AlertingRule
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.pman.analyzer import AnalysisReport, PmanAnalyzer, default_sgx_rules
from repro.pman.boxplot import BoxPlot
from repro.sgx import SgxDriver
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.teemon import TeemonConfig, deploy


# ---------------------------------------------------------------------------
# BoxPlot
# ---------------------------------------------------------------------------
def test_boxplot_five_numbers():
    box = BoxPlot.from_values([1, 2, 3, 4, 5, 6, 7, 8, 9])
    assert box.minimum == 1
    assert box.maximum == 9
    assert box.median == 5
    assert box.q1 == 3 and box.q3 == 7
    assert box.count == 9
    assert box.outliers == ()


def test_boxplot_outliers_beyond_fences():
    box = BoxPlot.from_values([10, 11, 12, 13, 14, 100])
    assert 100 in box.outliers
    assert box.whisker_high <= 14


def test_boxplot_empty_rejected():
    with pytest.raises(AnalysisError):
        BoxPlot.from_values([])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boxplot_summarises_finite_values_only(bad):
    box = BoxPlot.from_values([1.0, bad, 3.0])
    assert (box.minimum, box.median, box.maximum, box.count) == (1.0, 2.0, 3.0, 2)


def test_boxplot_of_no_finite_value_rejected():
    with pytest.raises(AnalysisError):
        BoxPlot.from_values([math.nan, math.inf])


# ---------------------------------------------------------------------------
# PmanAnalyzer
# ---------------------------------------------------------------------------
def _analyzer_setup(values, metric="sgx_epc_free_pages"):
    clock = VirtualClock()
    tsdb = Tsdb()
    for index, value in enumerate(values):
        tsdb.append_sample(metric, (index + 1) * seconds(15), value)
    clock.advance((len(values) + 1) * seconds(15))
    return clock, QueryEngine(tsdb), tsdb


EPC_NEARLY_FULL = AlertingRule(
    "EpcNearlyFull", "sgx_epc_free_pages < 512",
    labels={"severity": "warning"},
)


def test_analyzer_fires_and_resolves_alerts():
    clock, engine, tsdb = _analyzer_setup([100.0] * 20)  # below 512
    analyzer = PmanAnalyzer(clock, engine, tsdb, rules=[EPC_NEARLY_FULL],
                            boxplot_queries=["sgx_epc_free_pages"])
    report = analyzer.analyze_once()
    assert [a.name() for a in report.firing] == ["EpcNearlyFull"]
    assert analyzer.firing() == report.firing
    assert "sgx_epc_free_pages" in report.boxplots
    assert EPC_NEARLY_FULL.active() == []  # the analyzer runs a clone

    tsdb.append_sample("sgx_epc_free_pages", clock.now_ns, 4096.0)
    clock.advance(seconds(60))
    assert analyzer.analyze_once().firing == []
    kinds = [line.split(" ")[1] for line in analyzer.journal.lines()]
    assert kinds == ["alert-pending", "alert-firing", "alert-resolved"]


def test_absent_series_resolves_at_the_next_tick():
    # The rule reads the value at ``now``: once the series has no sample
    # within the lookback it resolves, although the trailing window still
    # holds values below the threshold.
    clock, engine, tsdb = _analyzer_setup([100.0] * 4)
    analyzer = PmanAnalyzer(clock, engine, tsdb, rules=[EPC_NEARLY_FULL],
                            boxplot_queries=[])
    assert analyzer.analyze_once().firing
    clock.advance(seconds(5 * 60))
    assert engine.instant("sgx_epc_free_pages", clock.now_ns) == []
    window = engine.range_query("sgx_epc_free_pages",
                                clock.now_ns - seconds(300), clock.now_ns,
                                seconds(15))
    assert window and window[0].samples[-1].value == 100.0
    assert analyzer.analyze_once().firing == []
    assert analyzer.journal.lines("alert-resolved")


def test_analyzer_gives_no_box_for_a_window_without_finite_values():
    clock, engine, tsdb = _analyzer_setup([math.nan] * 4, metric="g")
    analyzer = PmanAnalyzer(clock, engine, tsdb, rules=[],
                            boxplot_queries=["g"])
    assert analyzer.analyze_once().boxplots == {}


def test_analyzer_sinks_get_each_cycles_events():
    clock, engine, tsdb = _analyzer_setup([100.0] * 4)
    analyzer = PmanAnalyzer(clock, engine, tsdb, rules=[EPC_NEARLY_FULL],
                            boxplot_queries=[])
    received = []
    analyzer.add_sink(lambda events, now: received.append(
        (now, [kind for kind, _ in events])))
    analyzer.analyze_once()
    assert received == [(clock.now_ns, ["pending", "firing"])]


def test_analyzer_periodic_cadence():
    clock, engine, tsdb = _analyzer_setup([10_000.0] * 30)
    analyzer = PmanAnalyzer(
        clock, engine, tsdb, rules=default_sgx_rules(), every_ns=seconds(60)
    )
    analyzer.start()
    clock.advance(seconds(5 * 60))
    analyzer.stop()
    assert analyzer.analyses_total == 5
    clock.advance(seconds(120))
    assert analyzer.analyses_total == 5  # stopped


def test_analyzer_keeps_only_the_latest_report():
    # Three hours of minutely cycles leave one report behind, not 180.
    clock, engine, tsdb = _analyzer_setup([10_000.0] * 30)
    analyzer = PmanAnalyzer(
        clock, engine, tsdb, rules=default_sgx_rules(), every_ns=seconds(60)
    )
    assert analyzer.latest_report is None
    analyzer.start()
    clock.advance(seconds(3 * 3600))
    analyzer.stop()
    assert analyzer.analyses_total == 3 * 60
    assert analyzer.latest_report.time_ns == clock.now_ns
    # No attribute collects reports: the one held is the latest.
    held = [value for value in vars(analyzer).values()
            if isinstance(value, AnalysisReport) or isinstance(value, list)
            and any(isinstance(item, AnalysisReport) for item in value)]
    assert held == [analyzer.latest_report]


def test_analyzer_start_twice_rejected():
    clock, engine, tsdb = _analyzer_setup([1.0])
    analyzer = PmanAnalyzer(clock, engine, tsdb)
    analyzer.start()
    with pytest.raises(AnalysisError):
        analyzer.start()


def test_default_rules_cover_paper_bottlenecks():
    names = {rule.name for rule in default_sgx_rules()}
    assert {"ClockGettimeDominance", "EpcEvictionPressure",
            "ContextSwitchStorm", "TargetUnreachable"} <= names
    assert all(rule.for_s == 0 and rule.labels["severity"]
               and rule.annotations["description"]
               for rule in default_sgx_rules())


#: PMAN alerts on the quickstart host (examples/quickstart.py) as the
#: sliding-window threshold analyzer fired them: alert name, series labels
#: (metric name aside) and fire time in seconds.  None resolved.
QUICKSTART_ALERTS = [
    ("FutexDominance",
     "instance=sgx-host,job=ebpf,name=futex", 60),
    ("EpcEvictionPressure", "instance=sgx-host,job=sgx", 60),
    ("EpcNearlyFull", "instance=sgx-host,job=sgx", 60),
    ("ContextSwitchStorm", "instance=sgx-host,job=ebpf", 60),
]


def test_quickstart_host_fires_what_the_threshold_analyzer_fired():
    kernel = Kernel(seed=7, hostname="sgx-host")
    kernel.load_module(SgxDriver())
    deployment = deploy(kernel, TeemonConfig(scrape_interval_s=5.0))
    runtime = SconeRuntime()
    runtime.setup(kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320, pipeline=8)
    bench.prepopulate(runtime, server, keys=720_000, value_size=64)
    bench.run(runtime, server, duration_s=120.0,
              ebpf_active=True, full_monitoring=True)

    fired = []
    for line in deployment.session.alert_log():
        time_ns, kind, labels = line.split(" ")[:3]
        assert kind in ("alert-pending", "alert-firing"), line
        if kind == "alert-firing":
            pairs = dict(pair.split("=", 1) for pair in labels.split(","))
            name = pairs.pop("alertname")
            pairs.pop("severity")
            series = ",".join(f"{k}={v}" for k, v in sorted(pairs.items()))
            fired.append((name, series, int(time_ns) // 10**9))
    assert fired == QUICKSTART_ALERTS
    assert [a.name() for a in deployment.session.active_alerts()] == [
        name for name, _, _ in QUICKSTART_ALERTS
    ]
    deployment.shutdown()
