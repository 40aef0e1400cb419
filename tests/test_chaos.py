"""Chaos suite: seeded fault plans against full scrape→TSDB→query cycles.

Every test drives a real scrape pipeline (OpenMetrics registries behind a
fault-wrapped HTTP network, a hardened scrape manager, the TSDB, the
query engine) through hundreds of virtual intervals under injected
faults, then asserts invariants that must hold *exactly* — including the
headline one: the same fault-plan seed yields a byte-identical fault
journal and an identical final TSDB/health state across two runs.
"""

import hashlib
from types import SimpleNamespace

from repro.faults import (
    ClockSkewInjector,
    CorruptionInjector,
    DelayInjector,
    FaultPlan,
    FaultyHttpNetwork,
    FlapInjector,
    SlowLinkInjector,
    StaleReplayInjector,
)
from repro.exporters.teemon_self import SELF_JOB, TeemonSelfExporter
from repro.net.http import HttpNetwork
from repro.net.network import Link
from repro.openmetrics import CollectorRegistry, encode_registry
from repro.pmag.query.engine import QueryEngine
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng

INTERVAL_S = 5


def build_rig(
    seed,
    targets=2,
    max_retries=1,
    flap=False,
    delay_p=0.0,
    corrupt_p=0.0,
    replay_p=0.0,
    slow_link=False,
    skew_s=0.0,
    retention_s=None,
    staleness_intervals=3,
    tsdb_factory=None,
):
    """A full scrape pipeline behind a seeded fault plan."""
    rng = DeterministicRng(seed)
    clock = VirtualClock()
    inner = HttpNetwork()
    plan = FaultPlan(clock, rng.fork("plan"))
    injectors = SimpleNamespace(flap=None)
    if flap:
        injectors.flap = plan.add(
            FlapInjector(rng.fork("flap"), mean_up_s=40.0, mean_down_s=12.0)
        )
    if delay_p:
        plan.add(DelayInjector(rng.fork("delay"), probability=delay_p,
                               min_delay_s=2.0, max_delay_s=4.0))
    if slow_link:
        link = Link(bandwidth_bits_per_s=10e6)
        plan.add(SlowLinkInjector(rng.fork("link"), link,
                                  offered_bytes_per_s=0.5 * link.payload_bytes_per_s))
    if skew_s:
        plan.add(ClockSkewInjector(rng.fork("skew"), offset_s=skew_s))
    if replay_p:
        plan.add(StaleReplayInjector(rng.fork("replay"), probability=replay_p))
    if corrupt_p:
        # Corruption goes last: injectors apply in installation order, and
        # a later body-replacing injector (stale replay) would otherwise
        # overwrite the corruption with the previous good body.
        plan.add(CorruptionInjector(rng.fork("corrupt"), probability=corrupt_p))
    network = FaultyHttpNetwork(inner, plan)
    factory = tsdb_factory or Tsdb
    tsdb = factory(retention_ns=None if retention_s is None else seconds(retention_s))
    manager = ScrapeManager(
        clock, network, tsdb, interval_ns=seconds(INTERVAL_S),
        timeout_budget_s=1.0, max_retries=max_retries,
        staleness_intervals=staleness_intervals, rng=rng.fork("manager"),
    )
    counters = []
    target_list = []
    for i in range(targets):
        host = f"exp{i}"
        registry = CollectorRegistry()
        counters.append(registry.counter("events_total", "events"))
        inner.register(host, 9100, "/metrics",
                       lambda r=registry: encode_registry(r))
        target = ScrapeTarget(job="chaos", instance=host,
                              url=f"http://{host}:9100/metrics")
        manager.add_target(target)
        target_list.append(target)
    return SimpleNamespace(
        clock=clock, plan=plan, network=network, tsdb=tsdb, manager=manager,
        counters=counters, targets=target_list, injectors=injectors,
        engine=QueryEngine(tsdb),
    )


def drive(rig, cycles):
    """Run ``cycles`` scrape intervals with a deterministic workload."""
    rig.manager.start()
    for cycle in range(cycles):
        for index, counter in enumerate(rig.counters):
            counter.inc((cycle + index) % 7 + 1)
        rig.clock.advance(seconds(INTERVAL_S))
    rig.manager.stop()


def tsdb_digest(rig):
    """Order-independent content hash of the whole TSDB."""
    lines = []
    for series in rig.tsdb.select([], 0, rig.clock.now_ns + 1):
        samples = ",".join(f"{s.time_ns}:{s.value!r}" for s in series.samples)
        lines.append(f"{sorted(series.labels.items())}|{samples}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def health_digest(rig):
    return "\n".join(
        f"{t.url} {rig.manager.health(t)}" for t in rig.targets
    )


def up_samples(rig, instance):
    result = []
    for series in rig.tsdb.select_metric("up", 0, rig.clock.now_ns + 1):
        if series.labels.get("instance") == instance:
            result.extend((s.time_ns, s.value) for s in series.samples)
    return sorted(result)


MIXED = dict(flap=True, delay_p=0.05, corrupt_p=0.06, replay_p=0.05,
             slow_link=True, skew_s=0.005)


# ---------------------------------------------------------------------------
# Determinism: the headline invariant
# ---------------------------------------------------------------------------
def test_same_seed_identical_faults_and_final_state():
    def run():
        rig = build_rig(31, **MIXED)
        drive(rig, 300)
        return (rig.plan.journal_text(), tsdb_digest(rig), health_digest(rig),
                rig.manager.self_stats())

    first, second = run(), run()
    assert first[0] == second[0]  # byte-identical injected fault sequence
    assert first[0].count("\n") > 50  # the plan actually injected faults
    assert first[1] == second[1]  # identical final TSDB content
    assert first[2] == second[2]  # identical health records
    assert first[3] == second[3]  # identical self-monitoring counters


def test_different_seed_different_fault_sequence():
    rig_a = build_rig(31, **MIXED)
    rig_b = build_rig(32, **MIXED)
    drive(rig_a, 100)
    drive(rig_b, 100)
    assert rig_a.plan.journal_text() != rig_b.plan.journal_text()


# ---------------------------------------------------------------------------
# up transitions match the injected flap schedule exactly
# ---------------------------------------------------------------------------
def test_up_series_matches_flap_schedule_exactly():
    cycles = 400
    rig = build_rig(17, flap=True, max_retries=0)
    drive(rig, cycles)
    flap = rig.injectors.flap
    for target in rig.targets:
        expected = [
            (seconds(INTERVAL_S) * k,
             0.0 if flap.down_at(target.url, seconds(INTERVAL_S) * k) else 1.0)
            for k in range(1, cycles + 1)
        ]
        assert up_samples(rig, target.instance) == expected
    # The schedule actually flapped (both states seen) and transitions
    # were counted.
    values = {v for _t, v in up_samples(rig, rig.targets[0].instance)}
    assert values == {0.0, 1.0}
    assert rig.manager.flaps_total > 0


# ---------------------------------------------------------------------------
# No sample is ever ingested from a corrupted body
# ---------------------------------------------------------------------------
def test_corrupted_bodies_never_contribute_samples():
    cycles = 300
    rig = build_rig(23, corrupt_p=0.3, max_retries=0)
    drive(rig, cycles)
    corrupted = {
        (event.time_ns, event.url)
        for event in rig.plan.journal if event.kind == "corrupt"
    }
    assert corrupted  # the plan actually corrupted scrapes
    by_url = {t.url: t.instance for t in rig.targets}
    for time_ns, url in corrupted:
        instance = by_url[url]
        assert (time_ns, 0.0) in up_samples(rig, instance)
        for series in rig.tsdb.select_metric("events_total", time_ns, time_ns + 1):
            assert series.labels.get("instance") != instance


# ---------------------------------------------------------------------------
# Ingest accounting stays consistent under faults
# ---------------------------------------------------------------------------
def test_ingest_counters_reconcile_with_tsdb_appends():
    cycles = 300
    rig = build_rig(29, flap=True, corrupt_p=0.1, max_retries=0)
    batches = []
    append_batch = rig.tsdb.append_batch
    rig.tsdb.append_batch = lambda entries: (
        batches.append(len(entries)), append_batch(entries))[1]
    drive(rig, cycles)
    manager = rig.manager
    assert rig.tsdb.total_appends == (
        manager.samples_ingested + manager.up_writes + manager.meta_writes
        + manager.stale_writes
    )
    # No retention: nothing was thrown away either.
    assert rig.tsdb.sample_count() == rig.tsdb.total_appends
    assert manager.samples_dropped == 0
    # Every sample reached storage in a batch.  A delivered scrape
    # commits twice (body, then report), a failed one once.  A stale
    # target's recovery adds its marker clear, but only after failed
    # attempts.
    assert sum(batches) == rig.tsdb.total_appends
    attempts = sum(manager.health(t).scrapes for t in rig.targets)
    assert attempts == len(rig.targets) * cycles  # no retries
    assert attempts <= len(batches) <= 2 * attempts


def test_retention_under_chaos_bounds_the_tsdb():
    cycles = 400
    rig = build_rig(37, retention_s=300, **MIXED)
    drive(rig, cycles)
    assert rig.tsdb.sample_count() < rig.tsdb.total_appends
    # The surviving window still holds the most recent up state.
    for target in rig.targets:
        assert up_samples(rig, target.instance)


# ---------------------------------------------------------------------------
# Timeout and retry counters equal injected fault counts
# ---------------------------------------------------------------------------
def test_timeout_and_retry_counters_equal_injected_counts():
    cycles = 100
    retries = 1
    rig = build_rig(41, targets=1, delay_p=1.0, max_retries=retries)
    rig.manager.start()
    for cycle in range(cycles):
        rig.counters[0].inc(cycle % 7 + 1)
        rig.clock.advance(seconds(INTERVAL_S))
    # Stop the periodic schedule first, then let the final cycle's
    # pending retry drain (stop() would cancel it).
    rig.manager._timer.cancel()
    rig.clock.advance(seconds(INTERVAL_S))
    rig.manager.stop()
    injected_delays = rig.plan.counts()["delay"]
    # Every request (scheduled + retry) was delayed past the budget.
    assert injected_delays == cycles * (retries + 1)
    assert rig.manager.timeouts_total == injected_delays
    assert rig.manager.retries_total == cycles * retries
    assert rig.manager.samples_ingested == 0  # nothing ever landed in time


# ---------------------------------------------------------------------------
# The query path stays coherent under chaos
# ---------------------------------------------------------------------------
def test_query_engine_over_chaotic_history():
    cycles = 300
    rig = build_rig(43, **MIXED)
    drive(rig, cycles)
    now = rig.clock.now_ns
    # Instant query: up is 0/1 per target, nothing else.
    vector = rig.engine.instant("up", now)
    chaos_values = [v for labels, v in vector if labels.get("job") == "chaos"]
    assert len(chaos_values) == len(rig.targets)
    assert all(v in (0.0, 1.0) for v in chaos_values)
    # Range query over the counter: rates are finite and non-negative
    # even across flaps, corruption gaps and stale replays.
    series = rig.engine.range_query(
        "rate(events_total[1m])", now - seconds(600), now, seconds(30)
    )
    assert series
    for s in series:
        assert all(v.value >= 0.0 for v in s.samples)
    # The scraper's counters are queryable like any other series, once
    # a teemon_self target serves them (scraped here past the fault
    # plan, so the one scrape cannot itself be delayed or corrupted).
    exporter = TeemonSelfExporter(
        "monitor", {"scrape": rig.manager.self_stats})
    exporter.expose(rig.network.inner)
    monitor = ScrapeManager(rig.clock, rig.network.inner, rig.tsdb)
    monitor.add_target(ScrapeTarget(
        job=SELF_JOB, instance="monitor", url=exporter.url))
    monitor.scrape_once()
    timeout_vec = rig.engine.instant("teemon_scrape_timeouts_total", now)
    assert rig.manager.timeouts_total > 0
    assert timeout_vec and timeout_vec[0][1] == float(rig.manager.timeouts_total)
