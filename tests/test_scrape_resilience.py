"""Scrape-pipeline hardening: timeout budget, retries with jittered
exponential backoff on the virtual clock, staleness markers, and the
scraper's self-monitoring counters."""

import pytest

from repro.faults import DelayInjector, FaultPlan, FaultyHttpNetwork
from repro.net.http import HttpNetwork
from repro.openmetrics import CollectorRegistry, encode_registry
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng


def _setup(network=None, **kwargs):
    clock = VirtualClock()
    network = network if network is not None else HttpNetwork()
    tsdb = Tsdb()
    kwargs.setdefault("interval_ns", seconds(5))
    manager = ScrapeManager(clock, network, tsdb, **kwargs)
    return clock, network, tsdb, manager


def _expose(network, host="h", port=9100):
    registry = CollectorRegistry()
    counter = registry.counter("events_total", "e")
    endpoint = network.register(host, port, "/metrics",
                                lambda: encode_registry(registry))
    target = ScrapeTarget(job="test", instance=host,
                          url=f"http://{host}:{port}/metrics")
    return counter, endpoint, target


def _up_samples(tsdb, end_ns, **labels):
    series = tsdb.select_metric("up", 0, end_ns + 1)
    samples = []
    for s in series:
        if all(s.labels.get(k) == v for k, v in labels.items()):
            samples.extend((smp.time_ns, smp.value) for smp in s.samples)
    return sorted(samples)


def _expected_backoffs(seed, base_s, jitter, attempts, interval_ns):
    """Replicate the manager's jittered-exponential schedule."""
    rng = DeterministicRng(seed).fork("scrape-backoff")
    delays = []
    for attempt in range(attempts):
        delay_s = base_s * (2 ** attempt)
        delay_s *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
        delays.append(min(int(delay_s * NANOS_PER_SEC), interval_ns))
    return delays


# ---------------------------------------------------------------------------
# Timeout budget
# ---------------------------------------------------------------------------
def test_slow_response_past_budget_is_a_timeout_failure():
    clock = VirtualClock()
    inner = HttpNetwork()
    plan = FaultPlan(clock, DeterministicRng(1))
    plan.add(DelayInjector(DeterministicRng(1).fork("d"), probability=1.0,
                           min_delay_s=2.0, max_delay_s=3.0))
    network = FaultyHttpNetwork(inner, plan)
    _clock, _n, tsdb, manager = _setup(network=network, timeout_budget_s=1.0,
                                       max_retries=0)
    _counter, _endpoint, target = _expose(network)
    manager.add_target(target)
    assert manager.scrape_once() == 0  # body arrived, but too late
    assert manager.timeouts_total == 1
    assert manager.health(target).timeouts == 1
    assert not manager.health(target).up
    assert tsdb.latest("up").value == 0.0
    assert tsdb.latest("events_total") is None  # late body discarded


def test_slow_but_within_budget_ingests_normally():
    clock = VirtualClock()
    inner = HttpNetwork()
    plan = FaultPlan(clock, DeterministicRng(1))
    plan.add(DelayInjector(DeterministicRng(1).fork("d"), probability=1.0,
                           min_delay_s=0.2, max_delay_s=0.4))
    network = FaultyHttpNetwork(inner, plan)
    _clock, _n, tsdb, manager = _setup(network=network, timeout_budget_s=1.0)
    counter, _endpoint, target = _expose(network)
    manager.add_target(target)
    counter.inc(3)
    assert manager.scrape_once() == 1
    assert manager.timeouts_total == 0
    # The transport latency shows up in the scrape duration metadata.
    assert tsdb.latest("scrape_duration_seconds").value >= 0.2


# ---------------------------------------------------------------------------
# Retry with jittered exponential backoff on the virtual clock
# ---------------------------------------------------------------------------
def test_retry_timestamps_follow_jittered_exponential_schedule():
    seed = 42
    clock, network, tsdb, manager = _setup(
        max_retries=2, backoff_base_s=0.25, backoff_jitter=0.5,
        rng=DeterministicRng(seed),
    )
    target = ScrapeTarget(job="dead", instance="h", url="http://h:9100/metrics")
    manager.add_target(target)
    clock.advance(seconds(1))
    t0 = clock.now_ns
    manager.scrape_once()
    clock.advance(seconds(4))  # let both retries fire
    d0, d1 = _expected_backoffs(seed, 0.25, 0.5, 2, manager.interval_ns)
    expected = [(t0, 0.0), (t0 + d0, 0.0), (t0 + d0 + d1, 0.0)]
    assert _up_samples(tsdb, clock.now_ns, job="dead") == expected
    assert manager.retries_total == 2
    assert manager.health(target).retries == 2
    # Retries exhausted: no further attempts were queued.
    assert manager.health(target).scrapes == 3


def test_backoff_is_capped_at_one_interval():
    _clock, _network, _tsdb, manager = _setup(
        max_retries=1, backoff_base_s=100.0, backoff_jitter=0.0,
    )
    assert manager.backoff_delay_ns(0) == manager.interval_ns


def test_retry_recovers_before_next_interval_when_fault_clears():
    clock, network, tsdb, manager = _setup(max_retries=2)
    _counter, endpoint, target = _expose(network)
    manager.add_target(target)
    endpoint.healthy = False
    clock.advance(seconds(1))
    t0 = clock.now_ns
    manager.scrape_once()
    assert not manager.health(target).up
    endpoint.healthy = True  # fault clears right after the failed scrape
    clock.advance(seconds(1))  # first retry fires well inside the interval
    health = manager.health(target)
    assert health.up
    assert manager.retries_total == 1
    up = _up_samples(tsdb, clock.now_ns, job="test")
    assert up[0] == (t0, 0.0)
    assert up[-1][1] == 1.0 and up[-1][0] < t0 + manager.interval_ns


def test_flapping_target_recovers_within_one_scheduled_interval():
    clock, network, tsdb, manager = _setup(max_retries=0)
    _counter, endpoint, target = _expose(network)
    manager.add_target(target)
    manager.start()
    clock.advance(seconds(5))
    assert manager.health(target).up
    endpoint.healthy = False
    clock.advance(seconds(10))
    assert not manager.health(target).up
    endpoint.healthy = True
    clock.advance(seconds(5))  # exactly one interval later
    assert manager.health(target).up
    manager.stop()
    assert manager.flaps_total == 2  # up -> down -> up
    assert manager.health(target).flaps == 2
    assert tsdb.latest("target_flaps_total").value == 2.0


def test_stop_cancels_pending_retries():
    clock, network, tsdb, manager = _setup(max_retries=2)
    target = ScrapeTarget(job="dead", instance="h", url="http://h:9100/metrics")
    manager.add_target(target)
    manager.start()
    clock.advance(seconds(5))  # one failing cycle; a retry is now pending
    manager.stop()
    before = manager.health(target).scrapes
    clock.advance(seconds(60))
    assert manager.health(target).scrapes == before  # nothing fired


def test_scheduled_cycle_cancels_stale_pending_retry():
    clock, network, tsdb, manager = _setup(max_retries=2,
                                           backoff_base_s=4.0,
                                           backoff_jitter=0.0)
    _counter, endpoint, target = _expose(network)
    manager.add_target(target)
    endpoint.healthy = False
    manager.start()
    clock.advance(seconds(5))  # failed cycle; retry pending at +4 s
    endpoint.healthy = True
    # Manually scrape now: the pending retry must be cancelled, not fire
    # on top of the next cycle.
    manager.scrape_once()
    retries_before = manager.retries_total
    clock.advance(seconds(5))
    assert manager.retries_total == retries_before
    manager.stop()


# ---------------------------------------------------------------------------
# Staleness markers
# ---------------------------------------------------------------------------
def test_staleness_marker_after_n_missed_intervals():
    clock, network, tsdb, manager = _setup(max_retries=0,
                                           staleness_intervals=2)
    target = ScrapeTarget(job="gone", instance="h", url="http://h:9100/metrics")
    manager.add_target(target)
    clock.advance(seconds(5))
    manager.scrape_once()
    assert manager.stale_targets() == []  # one miss is not stale yet
    clock.advance(seconds(5))
    manager.scrape_once()
    assert manager.stale_targets() == [target]
    assert tsdb.latest("scrape_target_stale", job="gone").value == 1.0
    clock.advance(seconds(5))
    manager.scrape_once()  # still down: stays stale, no duplicate marker
    stale_series = tsdb.select_metric("scrape_target_stale", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in stale_series) == 1
    # Recovery clears the marker.
    registry = CollectorRegistry()
    registry.counter("events_total", "e")
    network.register("h", 9100, "/metrics", lambda: encode_registry(registry))
    clock.advance(seconds(5))
    manager.scrape_once()
    assert manager.stale_targets() == []
    assert tsdb.latest("scrape_target_stale", job="gone").value == 0.0


# ---------------------------------------------------------------------------
# Satellite fixes: ingest accounting
# ---------------------------------------------------------------------------
def test_failed_scrape_does_not_inflate_ingest_count():
    clock, network, tsdb, manager = _setup(max_retries=0)
    target = ScrapeTarget(job="dead", instance="h", url="http://h:9100/metrics")
    manager.add_target(target)
    assert manager.scrape_once() == 0  # nothing ingested from a failure
    assert manager.samples_ingested == 0
    assert manager.up_writes == 1  # the up=0 write is reported separately
    assert manager.meta_writes == 0  # no metadata for a failed scrape


def test_duplicate_timestamp_drops_are_counted_and_exposed():
    clock, network, tsdb, manager = _setup(max_retries=0)
    counter, _endpoint, target = _expose(network)
    manager.add_target(target)
    clock.advance(seconds(1))
    own = {}
    counter = manager._meta_writes_counter
    manager._append(clock.now_ns, [("m_total", 1.0, counter)],
                    {"job": "x"}, own)
    assert (manager.meta_writes, manager.samples_dropped) == (1, 0)
    # One batch, one duplicate: the duplicate is dropped and counted, the
    # other sample lands and bumps its counter.
    manager._append(clock.now_ns, [("m_total", 2.0, counter),
                                   ("n_total", 1.0, counter)],
                    {"job": "x"}, own)
    assert list(own) == ["m_total", "n_total"]
    assert (manager.meta_writes, manager.samples_dropped) == (2, 1)
    # The counter is exported as a self-monitoring series on the next cycle.
    clock.advance(seconds(1))
    manager.scrape_once()
    assert tsdb.latest("scrape_samples_dropped_total", job="pmag").value == 1.0


def test_self_monitoring_series_written_each_cycle():
    clock, network, tsdb, manager = _setup(max_retries=0)
    counter, _endpoint, target = _expose(network)
    manager.add_target(target)
    clock.advance(seconds(1))
    manager.scrape_once()
    for name in ("scrape_timeouts_total", "scrape_retries_total",
                 "scrape_samples_dropped_total", "target_flaps_total"):
        sample = tsdb.latest(name, job="pmag", instance="scraper")
        assert sample is not None and sample.value == 0.0
    stats = manager.self_stats()
    assert stats["samples_ingested"] == 1 and stats["up_writes"] == 1


def test_self_monitoring_can_be_disabled():
    clock, network, tsdb, manager = _setup(max_retries=0, self_monitor=False)
    counter, _endpoint, target = _expose(network)
    manager.add_target(target)
    manager.scrape_once()
    assert tsdb.latest("scrape_timeouts_total") is None


def test_parameter_validation():
    from repro.errors import TsdbError
    clock, network, tsdb = VirtualClock(), HttpNetwork(), Tsdb()
    for kwargs in (
        {"timeout_budget_s": 0.0},
        {"max_retries": -1},
        {"backoff_base_s": 0.0},
        {"backoff_jitter": 1.0},
        {"staleness_intervals": 0},
    ):
        with pytest.raises(TsdbError):
            ScrapeManager(clock, network, tsdb, **kwargs)
