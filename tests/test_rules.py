"""Tests for PMAG recording rules: rules, groups and the evaluator."""

import pytest

from repro.errors import TsdbError
from repro.pmag.query.engine import QueryEngine
from repro.pmag.rules import RecordingRule, RuleEvaluator, RuleGroup
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds


def _tsdb_with_counter():
    tsdb = Tsdb()
    for step in range(40):
        tsdb.append_sample(
            "syscalls_total", (step + 1) * seconds(5), step * 500.0, name="read"
        )
    return tsdb


def test_recording_rule_name_needs_colon():
    with pytest.raises(TsdbError):
        RecordingRule(record="plainname", expr="x")
    RecordingRule(record="job:syscalls:rate1m", expr="x")


def test_rule_group_records_series():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("sgx", [
        RecordingRule("job:syscalls:rate1m", "rate(syscalls_total[1m])"),
    ])
    recorded = group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    assert recorded == 1
    sample = tsdb.latest("job:syscalls:rate1m")
    assert sample is not None and sample.value == pytest.approx(100.0)


def test_rule_static_labels_attached():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("g", [
        RecordingRule("job:x:sum", "sum(syscalls_total)",
                      static_labels={"team": "sgx"}),
    ])
    group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    series = tsdb.select_metric("job:x:sum", 0, 41 * seconds(5))
    assert series[0].labels.get("team") == "sgx"


def test_bad_rule_does_not_break_group():
    tsdb = _tsdb_with_counter()
    engine = QueryEngine(tsdb)
    group = RuleGroup("g", [
        RecordingRule("job:bad:q", "this is (not a query"),
        RecordingRule("job:good:sum", "sum(syscalls_total)"),
    ])
    recorded = group.evaluate(engine, tsdb, now_ns=40 * seconds(5))
    assert recorded == 1
    assert "job:bad:q" in group.last_error


@pytest.mark.parametrize("gap_intervals", [1, 4])
def test_a_rule_reads_an_earlier_rules_output_at_the_same_instant(
        gap_intervals):
    # Rule B consumes rule A's output.  Each rule's writes must be in
    # storage before the next rule evaluates, or B would read A's sample
    # from the previous instant.  One interval apart is cadence mode;
    # four apart is incremental backfill, where A writes every missed
    # instant before B evaluates any of them.
    tsdb = Tsdb()
    total = 0.0
    for step in range(1, 61):
        total += 10.0 * step  # accelerating: a new rate at every instant
        tsdb.append_sample("c_total", step * seconds(5), total)
    engine = QueryEngine(tsdb)
    group = RuleGroup("g", [
        RecordingRule("job:c:rate1m", "rate(c_total[1m])"),
        RecordingRule("job:c:rate1m_x2", "job:c:rate1m * 2"),
    ])
    first = seconds(120)
    group.evaluate(engine, tsdb, first, incremental=True)
    group.evaluate(engine, tsdb, first + gap_intervals * group.interval_ns,
                   incremental=True)

    def recorded(name):
        (series,) = tsdb.select_metric(name, 0, seconds(300))
        return {s.time_ns: s.value for s in series.samples}

    rate = recorded("job:c:rate1m")
    assert len(rate) == 1 + gap_intervals
    assert len(set(rate.values())) == len(rate)
    assert recorded("job:c:rate1m_x2") == {
        time_ns: 2 * value for time_ns, value in rate.items()}


def test_duplicate_rules_rejected():
    with pytest.raises(TsdbError):
        RuleGroup("g", [
            RecordingRule("a:b", "x"),
            RecordingRule("a:b", "y"),
        ])


def test_evaluator_periodic_on_clock():
    clock = VirtualClock()
    tsdb = Tsdb()
    engine = QueryEngine(tsdb)
    # Live counter advanced by a timer, recorded by the evaluator.
    counter = {"v": 0.0}

    def feed():
        counter["v"] += 500.0
        tsdb.append_sample("c_total", clock.now_ns, counter["v"])
        clock.call_later(seconds(5), feed)

    clock.call_later(seconds(5), feed)
    evaluator = RuleEvaluator(clock, engine, tsdb)
    evaluator.add_group(RuleGroup("g", [
        RecordingRule("job:c:rate", "rate(c_total[1m])"),
    ], interval_ns=seconds(15)))
    evaluator.start()
    clock.advance(seconds(300))
    evaluator.stop()
    series = tsdb.select_metric("job:c:rate", 0, clock.now_ns)
    assert series and len(series[0].samples) > 10
    assert series[0].samples[-1].value == pytest.approx(100.0)
    recorded_at_stop = evaluator.samples_recorded
    clock.advance(seconds(100))
    assert evaluator.samples_recorded == recorded_at_stop


def test_evaluator_duplicate_group_rejected():
    clock = VirtualClock()
    tsdb = Tsdb()
    evaluator = RuleEvaluator(clock, QueryEngine(tsdb), tsdb)
    evaluator.add_group(RuleGroup("g", [RecordingRule("a:b", "x")]))
    with pytest.raises(TsdbError):
        evaluator.add_group(RuleGroup("g", [RecordingRule("c:d", "y")]))
