"""Scrape manager tests: pull loop, health, discovery."""

import pytest

from repro.errors import TsdbError
from repro.net.http import HttpNetwork
from repro.openmetrics import CollectorRegistry, encode_registry
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds


def _setup(interval_s=5):
    clock = VirtualClock()
    network = HttpNetwork()
    tsdb = Tsdb()
    manager = ScrapeManager(clock, network, tsdb, interval_ns=seconds(interval_s))
    return clock, network, tsdb, manager


def _expose(network, host="h", port=9100):
    registry = CollectorRegistry()
    counter = registry.counter("events_total", "e")
    network.register(host, port, "/metrics", lambda: encode_registry(registry))
    return counter, ScrapeTarget(job="test", instance=host,
                                 url=f"http://{host}:{port}/metrics")


def test_scrape_once_ingests_samples():
    clock, network, tsdb, manager = _setup()
    counter, target = _expose(network)
    manager.add_target(target)
    counter.inc(42)
    clock.advance(seconds(1))
    ingested = manager.scrape_once()
    assert ingested == 1  # events_total; up + scrape meta counted separately
    assert manager.samples_ingested == 1
    assert manager.up_writes == 1
    assert manager.meta_writes == 2  # scrape duration + samples meta
    sample = tsdb.latest("events_total")
    assert sample is not None and sample.value == 42


def test_target_identity_labels_attached():
    clock, network, tsdb, manager = _setup()
    counter, target = _expose(network)
    manager.add_target(target)
    manager.scrape_once()
    series = tsdb.select_metric("events_total", 0, clock.now_ns + 1)
    assert series[0].labels.get("job") == "test"
    assert series[0].labels.get("instance") == "h"


def test_up_metric_healthy_and_down():
    clock, network, tsdb, manager = _setup()
    _counter, target = _expose(network)
    manager.add_target(target)
    manager.scrape_once()
    assert tsdb.latest("up").value == 1.0
    assert manager.health(target).up
    network.unregister("h", 9100, "/metrics")
    clock.advance(seconds(5))
    manager.scrape_once()
    assert tsdb.latest("up").value == 0.0
    assert manager.down_targets() == [target]
    assert manager.health(target).consecutive_failures == 1


def test_malformed_exposition_marks_target_down():
    clock, network, tsdb, manager = _setup()
    network.register("h", 9100, "/metrics", lambda: "garbage line here\n")
    target = ScrapeTarget(job="bad", instance="h", url="http://h:9100/metrics")
    manager.add_target(target)
    manager.scrape_once()
    assert tsdb.latest("up", job="bad").value == 0.0


def test_periodic_scraping_on_clock():
    clock, network, tsdb, manager = _setup(interval_s=5)
    counter, target = _expose(network)
    manager.add_target(target)
    manager.start()
    for _ in range(10):
        counter.inc(10)
        clock.advance(seconds(5))
    manager.stop()
    series = tsdb.select_metric("events_total", 0, clock.now_ns)
    assert len(series[0].samples) == 10
    # Stopped: no more scrapes.
    clock.advance(seconds(50))
    assert len(tsdb.select_metric("events_total", 0, clock.now_ns)[0].samples) == 10


def test_start_twice_rejected():
    _clock, _network, _tsdb, manager = _setup()
    manager.start()
    with pytest.raises(TsdbError):
        manager.start()


def test_duplicate_target_rejected():
    _clock, network, _tsdb, manager = _setup()
    _counter, target = _expose(network)
    manager.add_target(target)
    with pytest.raises(TsdbError):
        manager.add_target(target)


def test_service_discovery_merges_with_static():
    clock, network, tsdb, manager = _setup()
    counter_a, target_a = _expose(network, host="a")
    counter_b, target_b = _expose(network, host="b")
    manager.add_target(target_a)
    discovered = []
    manager.add_discovery(lambda: list(discovered))
    assert len(manager.current_targets()) == 1
    discovered.append(target_b)
    assert len(manager.current_targets()) == 2
    manager.scrape_once()
    assert tsdb.latest("events_total", instance="b") is not None


def test_discovery_deduplicates_by_url():
    _clock, network, _tsdb, manager = _setup()
    _counter, target = _expose(network)
    manager.add_target(target)
    manager.add_discovery(lambda: [target])
    assert len(manager.current_targets()) == 1


def test_same_instant_duplicate_scrape_dropped_not_fatal():
    clock, network, tsdb, manager = _setup()
    counter, target = _expose(network)
    manager.add_target(target)
    clock.advance(seconds(1))
    manager.scrape_once()
    manager.scrape_once()  # same timestamp: later sample dropped silently
    series = tsdb.select_metric("events_total", 0, clock.now_ns)
    assert len(series[0].samples) == 1


def test_bad_interval_rejected():
    clock = VirtualClock()
    with pytest.raises(TsdbError):
        ScrapeManager(clock, HttpNetwork(), Tsdb(), interval_ns=0)


def test_retention_enforced_during_scrape():
    clock, network, _tsdb, manager = _setup()
    tsdb = Tsdb(retention_ns=seconds(10))
    manager._tsdb = tsdb  # rewire for the retention check
    counter, target = _expose(network)
    manager.add_target(target)
    from repro.pmag.chunks import CHUNK_SIZE

    for _ in range(CHUNK_SIZE + 10):
        counter.inc()
        clock.advance(seconds(5))
        manager.scrape_once()
    # Old chunks beyond the 10 s retention got dropped.
    assert tsdb.sample_count() < CHUNK_SIZE


# ----------------------------------------------------------------------
# Per-target scrape memos: learn a series once, forget it with the target
# ----------------------------------------------------------------------
def _serve(network, bodies, host="h"):
    """Serve ``bodies`` in turn (the last one repeats) from one target."""
    served = iter(bodies)
    last = [bodies[-1]]

    def handler():
        last[0] = next(served, last[0])
        return last[0]

    network.register(host, 9100, "/metrics", handler)
    return ScrapeTarget(job="test", instance=host,
                        url=f"http://{host}:9100/metrics")


def _scrape_times(clock, manager, count):
    for _ in range(count):
        clock.advance(seconds(5))
        manager.scrape_once()


def test_steady_state_scrapes_hand_storage_the_same_labels_object():
    clock, network, tsdb, manager = _setup()
    target = _serve(network, ['m{a="x y"} 1\nn 2\n', 'm{a="x y"} 3\nn 4\n'])
    manager.add_target(target)
    seen = []
    append_batch = tsdb.append_batch

    def spy(entries):
        if entries[0][0].metric_name in ("m", "n"):  # bodies, not reports
            seen.append([labels for labels, _t, _v in entries])
        return append_batch(entries)

    tsdb.append_batch = spy
    _scrape_times(clock, manager, 3)
    assert len(seen) == 3 and len(seen[0]) == 2
    for later in seen[1:]:
        assert all(a is b for a, b in zip(seen[0], later))
    assert seen[0][0].items() == (
        ("__name__", "m"), ("a", "x y"), ("instance", "h"), ("job", "test"))
    values = [s.value for s in tsdb.select_metric("m", 0, clock.now_ns)[0].samples]
    assert values == [1.0, 3.0, 3.0]


def test_scrape_memos_hold_only_the_latest_exposition():
    # A target that renames every series on every scrape (the
    # "grow the input every round" stressor) is not remembered forever.
    clock, network, _tsdb, manager = _setup()
    bodies = [
        "".join(f'm{{gen="{round_no}",i="{i}"}} {i}\n' for i in range(12))
        for round_no in range(6)
    ] + ["only 1\n"]
    target = _serve(network, bodies)
    manager.add_target(target)
    health = manager.health(target)
    for _ in range(6):
        _scrape_times(clock, manager, 1)
        assert len(health.series) == len(health.stored) == 12
    _scrape_times(clock, manager, 1)
    assert set(health.series) == {"only"}
    assert list(health.stored) == [("only", ())]


def test_a_bad_exposition_marks_the_target_down_and_teaches_nothing():
    clock, network, tsdb, manager = _setup()
    good = 'm{a="1"} 1\nn 2\n'
    target = _serve(network, [good, 'm{a="1"} 5\nnew 1\nn 1 2 3\n', good])
    manager.add_target(target)
    health = manager.health(target)
    _scrape_times(clock, manager, 1)
    series, stored = dict(health.series), dict(health.stored)
    _scrape_times(clock, manager, 1)      # the body with the bad last line
    assert not health.up and tsdb.latest("up").value == 0.0
    assert tsdb.latest("new") is None     # nothing of it was ingested
    assert health.series == series and health.stored == stored
    _scrape_times(clock, manager, 1)
    assert health.up
    assert all(health.stored[key] is stored[key] for key in stored)


def test_a_retired_targets_memos_go_with_its_health_record():
    clock, network, _tsdb, manager = _setup()
    target = _serve(network, ["m 1\n"])
    present = [target]
    manager.add_discovery(lambda: list(present))
    _scrape_times(clock, manager, 2)
    assert manager.health(target).series
    retired = manager.health(target)
    present.clear()
    _scrape_times(clock, manager, 1)
    assert target not in manager._health  # noqa: SLF001
    present.append(target)
    clock.advance(seconds(5))
    assert manager.health(target) is not retired
    assert manager.health(target).series == manager.health(target).stored == {}
