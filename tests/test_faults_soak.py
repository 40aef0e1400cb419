"""Soak: thousands of virtual scrape intervals under continuous faults.

One long seeded run of the full pipeline — flapping endpoints, delays
past the timeout budget, a loaded link, exporter clock skew, corrupted
bodies, stale replays, retries enabled, retention on — checking at every
checkpoint and at the end that the TSDB and the health records never
diverge, that no corrupted body ever contributed a sample, and that the
timeout/retry counters equal the injected fault counts.

Kept in its own module so CI can run it as a separate step and its
runtime stays visible (see .github/workflows/ci.yml).
"""

from tests.test_chaos import INTERVAL_S, MIXED, build_rig, up_samples

from repro.simkernel.clock import seconds

CYCLES = 2500  # ≥ 2000 intervals, ~3.5 virtual hours at 5 s
CHECKPOINT_EVERY = 250


def test_soak_under_continuous_faults():
    rig = build_rig(71, targets=3, max_retries=2, retention_s=4000, **MIXED)
    manager, clock, flap = rig.manager, rig.clock, rig.injectors.flap

    def assert_tsdb_and_health_agree():
        for target in rig.targets:
            history = up_samples(rig, target.instance)
            assert history, f"no up history for {target.url}"
            last_time, last_value = history[-1]
            health = manager.health(target)
            assert last_value == (1.0 if health.up else 0.0), (
                f"TSDB/health divergence for {target.url} at {last_time}"
            )

    manager.start()
    for cycle in range(CYCLES):
        for index, counter in enumerate(rig.counters):
            counter.inc((cycle + index) % 9 + 1)
        clock.advance(seconds(INTERVAL_S))
        if (cycle + 1) % CHECKPOINT_EVERY == 0:
            assert_tsdb_and_health_agree()
    manager.stop()
    assert_tsdb_and_health_agree()

    # --- up history never contradicts the flap schedule -----------------
    # (one-directional: other faults may down an unflapped target, but a
    # scrape can never succeed while the schedule has the endpoint down)
    for target in rig.targets:
        for time_ns, value in up_samples(rig, target.instance):
            if value == 1.0:
                assert not flap.down_at(target.url, time_ns)

    # --- no sample was ever ingested from a corrupted body --------------
    corrupted = {(e.time_ns, e.url) for e in rig.plan.journal
                 if e.kind == "corrupt"}
    assert len(corrupted) > 50  # continuous corruption actually happened
    by_url = {t.url: t.instance for t in rig.targets}
    for time_ns, url in corrupted:
        for series in rig.tsdb.select_metric("events_total", time_ns,
                                             time_ns + 1):
            assert series.labels.get("instance") != by_url[url]

    # --- timeout counter equals the injected delay count ----------------
    counts = rig.plan.counts()
    assert manager.timeouts_total == counts["delay"] > 100
    assert manager.retries_total > 0
    assert counts["flap"] > 100  # endpoints really flapped throughout

    # --- ingest accounting reconciles exactly ---------------------------
    assert rig.tsdb.total_appends == (
        manager.samples_ingested + manager.up_writes + manager.meta_writes
        + manager.stale_writes
    )
    assert manager.samples_dropped == 0

    # --- retention really bounded the database --------------------------
    assert rig.tsdb.sample_count() < rig.tsdb.total_appends
    # Roughly one retention window of scrapes per live series survives
    # (chunk-granular slack allows 2x).
    window_scrapes = 4000 / INTERVAL_S
    assert rig.tsdb.sample_count() < 2 * window_scrapes * rig.tsdb.series_count()

    # --- nothing left ticking after stop --------------------------------
    assert clock.pending_count() == 0
