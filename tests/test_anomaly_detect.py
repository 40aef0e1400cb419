"""Anomaly detection: scenarios, determinism, alerting.

The detector flags every injected EPC-thrash / AEX-storm /
syscall-outlier burst, stays silent on the clean same-seed control run
(zero false positives), journals byte-identically across same-seed
reruns, and its ``teemon_anomaly_active`` self-series makes anomalies
pageable through the ordinary alerting engine.
"""

import pytest

from repro.errors import DeploymentError
from repro.experiments.common import MIB, make_sgx_host
from repro.faults.scenarios import (
    AexStormScenario,
    Burst,
    EpcThrashScenario,
    SyscallLatencyScenario,
)
from repro.pmag.tsdb import Tsdb
from repro.pmv.anomaly_view import render_anomaly_timeline
from repro.simkernel.clock import NANOS_PER_SEC
from repro.teemon.config import TeemonConfig
from repro.teemon.deploy import deploy
from repro.trace.detect import (
    KIND_AEX_STORM,
    KIND_EPC_THRASH,
    KIND_SYSCALL_LATENCY,
    AnomalyDetector,
    AnomalyEvent,
    AnomalyRule,
)

STEP_NS = 5 * NANOS_PER_SEC
ALL_KINDS = {KIND_EPC_THRASH, KIND_AEX_STORM, KIND_SYSCALL_LATENCY}


def detection_rig(seed=11, inject=True, **config_kwargs):
    """A deployed monitor watching one enclave, plus burst scenarios.

    ``inject=False`` builds the same-seed clean control: identical
    deployment and workload, no bursts.
    """
    kernel, driver = make_sgx_host(seed=seed)
    process = kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=4 * MIB)
    enclave.initialize()
    driver.page_in(enclave, 256)  # resident pages for the churn to cycle
    deployment = deploy(kernel, TeemonConfig(
        enable_anomaly_detection=True, **config_kwargs,
    ), start=True)
    scenarios = []
    if inject:
        scenarios = [
            EpcThrashScenario(driver, enclave, [Burst(120.0, 4096)]),
            AexStormScenario(enclave, [Burst(240.0, 2048)]),
            SyscallLatencyScenario(
                kernel, process.pid, [Burst(360.0, 500)]
            ),
        ]
    return kernel, deployment, scenarios


def drive(kernel, scenarios, steps=120):
    for _ in range(steps):
        kernel.clock.advance(STEP_NS)
        for scenario in scenarios:
            scenario.tick(kernel.clock.now_ns)


@pytest.fixture(scope="module")
def faulted_session():
    kernel, deployment, scenarios = detection_rig()
    drive(kernel, scenarios)
    assert all(s.pending() == 0 for s in scenarios)
    return deployment.session


# ---------------------------------------------------------------------------
# The acceptance scenarios
# ---------------------------------------------------------------------------
def test_detector_flags_every_injected_scenario_kind(faulted_session):
    stats = faulted_session.anomaly_stats()
    assert set(stats["anomalies_by_kind"]) >= ALL_KINDS
    assert all(
        count >= 1 for count in stats["anomalies_by_kind"].values()
    )
    assert stats["runs_total"] >= 19  # 600s of 30s windows
    assert stats["anomalies_total"] == sum(
        stats["anomalies_by_kind"].values()
    )


def test_clean_same_seed_control_has_zero_false_positives():
    kernel, deployment, _ = detection_rig(inject=False)
    drive(kernel, [])
    stats = deployment.session.anomaly_stats()
    assert stats["runs_total"] >= 19
    assert stats["anomalies_total"] == 0
    assert deployment.session.anomaly_journal() == []


def test_journal_lines_are_the_canonical_format(faulted_session):
    for line in faulted_session.anomaly_journal():
        time_ns, kind, metric, value, baseline = line.split(" ")
        assert int(time_ns) > 0
        assert kind.startswith("anomaly-")
        assert metric.startswith(("sgx_", "ebpf_"))
        assert value.startswith("value=") and baseline.startswith("baseline=")


def test_anomaly_timeline_renders_each_kind(faulted_session):
    text = faulted_session.render_anomaly_timeline()
    for kind in ALL_KINDS:
        assert kind in text
    assert "█" in text


def test_same_seed_runs_emit_byte_identical_anomaly_journals():
    def journal(seed):
        kernel, deployment, scenarios = detection_rig(seed=seed)
        drive(kernel, scenarios)
        return "\n".join(deployment.session.anomaly_journal())

    first = journal(29)
    assert first == journal(29)
    assert first  # the injected bursts really were journalled


def test_anomaly_detected_alert_fires_through_the_alerting_engine():
    kernel, deployment, scenarios = detection_rig(enable_alerting=True)
    fired = set()
    for _ in range(120):
        kernel.clock.advance(STEP_NS)
        for scenario in scenarios:
            scenario.tick(kernel.clock.now_ns)
        # The gauge drops back to 0 at the next clean detector run, so
        # the alert is transient: collect firing names while stepping.
        for rule in deployment.alert_rules:
            if rule.firing():
                fired.add(rule.name)
    assert "AnomalyDetected" in fired


def test_session_anomaly_accessors_raise_when_disabled():
    kernel, _ = make_sgx_host(seed=7)
    deployment = deploy(kernel, TeemonConfig(), start=False)
    session = deployment.session
    for call in (session.anomalies, session.anomaly_journal,
                 session.anomaly_stats, session.render_anomaly_timeline):
        with pytest.raises(DeploymentError):
            call()


# ---------------------------------------------------------------------------
# Detector unit behaviour (raw TSDB, no deployment)
# ---------------------------------------------------------------------------
COUNTER_RULE = AnomalyRule(
    kind=KIND_EPC_THRASH, metric="m_total", min_delta=100.0, ratio=4.0,
)


def write_counter(tsdb, time_ns, value):
    tsdb.append_sample("m_total", time_ns, value, job="j", instance="i")


def test_counter_rule_floor_ratio_and_warmup():
    tsdb = Tsdb()
    detector = AnomalyDetector(tsdb, rules=(COUNTER_RULE,))
    second = NANOS_PER_SEC
    write_counter(tsdb, 10 * second, 0.0)
    assert detector.run(10 * second) == []  # first sight primes the delta
    write_counter(tsdb, 20 * second, 5.0)
    assert detector.run(20 * second) == []  # warmup window, never flags
    write_counter(tsdb, 30 * second, 10.0)
    assert detector.run(30 * second) == []  # delta 5 under the floor
    write_counter(tsdb, 40 * second, 510.0)
    events = detector.run(40 * second)
    assert [e.kind for e in events] == [KIND_EPC_THRASH]
    assert events[0].value == 500.0
    assert events[0].baseline == 5.0


def test_a_run_at_the_previous_instant_changes_nothing():
    tsdb = Tsdb()
    detector = AnomalyDetector(tsdb, rules=(COUNTER_RULE,))
    second = NANOS_PER_SEC
    write_counter(tsdb, 10 * second, 0.0)
    detector.run(10 * second)
    write_counter(tsdb, 20 * second, 5.0)
    detector.run(20 * second)

    def state():
        return (
            {kind: list(h) for kind, h in detector._history.items()},  # noqa: SLF001
            dict(detector._prev_cum), dict(detector._prev_buckets),  # noqa: SLF001
            tsdb.sample_count(),
        )

    before = state()
    # Once more at 20 s: nothing new to see, nothing to write.
    assert detector.run(20 * second) == []
    assert state() == before
    assert before[0] == {KIND_EPC_THRASH: [5.0]}


def test_flagged_windows_stay_out_of_the_baseline():
    tsdb = Tsdb()
    detector = AnomalyDetector(tsdb, rules=(COUNTER_RULE,))
    second = NANOS_PER_SEC
    cumulative, now = 0.0, 0
    for delta in (0.0, 5.0, 5.0):
        now += 10 * second
        cumulative += delta
        write_counter(tsdb, now, cumulative)
        detector.run(now)
    # A sustained storm: if flagged windows fed the baseline, the third
    # storm window would look "normal" and detection would stop.
    storm_events = []
    for _ in range(3):
        now += 10 * second
        cumulative += 500.0
        write_counter(tsdb, now, cumulative)
        storm_events.extend(detector.run(now))
    assert len(storm_events) == 3
    assert all(e.baseline == 5.0 for e in storm_events)
    assert detector.stats()["anomalies_by_kind"] == {KIND_EPC_THRASH: 3}


def test_value_under_ratio_times_baseline_does_not_flag():
    tsdb = Tsdb()
    detector = AnomalyDetector(tsdb, rules=(COUNTER_RULE,))
    second = NANOS_PER_SEC
    cumulative, now = 0.0, 0
    for delta in (0.0, 120.0, 130.0, 125.0):
        now += 10 * second
        cumulative += delta
        write_counter(tsdb, now, cumulative)
        detector.run(now)
    # Baseline ~125: a 300 delta clears the floor but not 4x baseline,
    # so it does not flag — and, unflagged, it joins the baseline.
    now += 10 * second
    cumulative += 300.0
    write_counter(tsdb, now, cumulative)
    assert detector.run(now) == []
    # 1000 clears both the floor and 4x the (now ~169) baseline.
    now += 10 * second
    cumulative += 1000.0
    write_counter(tsdb, now, cumulative)
    assert [e.value for e in detector.run(now)] == [1000.0]


P95_RULE = AnomalyRule(
    kind=KIND_SYSCALL_LATENCY, metric="lat_us_bucket", min_delta=1024.0,
)


def write_buckets(tsdb, time_ns, counts):
    for le, value in counts.items():
        tsdb.append_sample(
            "lat_us_bucket", time_ns, value, job="j", le=le,
        )


def test_syscall_p95_estimated_from_bucket_window_deltas():
    tsdb = Tsdb()
    detector = AnomalyDetector(tsdb, rules=(P95_RULE,))
    second = NANOS_PER_SEC
    write_buckets(tsdb, 10 * second, {"16": 100.0, "8192": 100.0,
                                      "+Inf": 100.0})
    assert detector.run(10 * second) == []  # primes the bucket snapshot
    write_buckets(tsdb, 20 * second, {"16": 200.0, "8192": 200.0,
                                      "+Inf": 200.0})
    assert detector.run(20 * second) == []  # warmup; p95 = 16 anyway
    write_buckets(tsdb, 30 * second, {"16": 300.0, "8192": 300.0,
                                      "+Inf": 300.0})
    assert detector.run(30 * second) == []  # fast traffic: p95 = 16
    # An outlier burst: the window's new events sit in the 8192 bucket.
    write_buckets(tsdb, 40 * second, {"16": 310.0, "8192": 800.0,
                                      "+Inf": 800.0})
    events = detector.run(40 * second)
    assert [e.kind for e in events] == [KIND_SYSCALL_LATENCY]
    assert events[0].value == 8192.0


def test_detector_rejects_bad_construction():
    with pytest.raises(ValueError):
        AnomalyDetector(Tsdb(), baseline_windows=0)
    with pytest.raises(ValueError):
        AnomalyDetector(Tsdb(), warmup_windows=-1)


# ---------------------------------------------------------------------------
# Timeline view unit behaviour
# ---------------------------------------------------------------------------
def test_timeline_view_sentinels_and_bars():
    second = NANOS_PER_SEC

    def event(time_s, kind):
        return AnomalyEvent(
            time_ns=time_s * second, kind=kind, metric="m",
            value=1.0, baseline=0.0,
        )

    assert "(empty window)" in render_anomaly_timeline([], 10, 10)
    assert "(no anomalies detected)" in render_anomaly_timeline(
        [], 0, 100 * second
    )
    text = render_anomaly_timeline(
        [event(10, KIND_EPC_THRASH), event(90, KIND_EPC_THRASH),
         event(50, KIND_AEX_STORM)],
        0, 100 * second, width=20,
    )
    lines = text.splitlines()
    epc_bar = lines[lines.index(KIND_EPC_THRASH) + 1]
    assert epc_bar.count("█") == 2 and "2 hits" in epc_bar
    aex_bar = lines[lines.index(KIND_AEX_STORM) + 1]
    assert aex_bar.count("█") == 1 and "1 hits" in aex_bar
