"""The crash-recovery chaos proof for the full monitoring stack.

A supervised TEEMon deployment with the WAL enabled is crashed mid-run
(process kill + disk power loss) and resurrected.  The headline
invariants, asserted *exactly* against an uninterrupted same-seed run:

* the recovered database's pre-crash window is a subset of the
  uninterrupted run's — recovery never invents samples;
* the shortfall equals :attr:`RecoveryReport.samples_lost` sample for
  sample, and every lost sample sits inside the final WAL-flush
  interval (the documented loss bound);
* the loss is served back through the ``teemon_self`` exporter as
  ``teemon_recovery_samples_lost``;
* corrupt WAL records are quarantined — counted and journalled in the
  :class:`~repro.faults.plan.FaultPlan` — without aborting recovery;
* scrape health (``up``, staleness, flap counting) carries across the
  restart with no spurious transitions.
"""

import importlib
import weakref
from types import SimpleNamespace

import pytest

from repro.faults import FaultPlan
from repro.net.http import HttpNetwork
from repro.openmetrics import CollectorRegistry, encode_registry
from repro.errors import DeploymentError, TsdbError
from repro.pmag import archive, wal
from repro.pmag.scrape import ScrapeTarget
from repro.pmag.storage import shard_for
from repro.pmag.wal import RECORD_SAMPLES
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.sgx.driver import SgxDriver
from repro.teemon import MonitorSupervisor, TeemonConfig, deploy
from tests.codec_oracle import (
    reference_crash_loss,
    reference_replay_v3,
    reference_sample_run,
    reference_series_record,
    segment_frames,
)

FLUSH_S = 12.0
CHECKPOINT_S = 60.0
T_CRASH_S = 83
T_END_S = 180


def build_rig(seed):
    """A supervised WAL-enabled deployment on a fresh SGX host."""
    kernel = Kernel(seed=seed, hostname="crash-host")
    kernel.load_module(SgxDriver())
    rng = DeterministicRng(seed)
    plan = FaultPlan(kernel.clock, rng.fork("plan"))
    disk = SimDisk()
    config = TeemonConfig(
        enable_wal=True,
        wal_flush_every_s=FLUSH_S,
        checkpoint_every_s=CHECKPOINT_S,
    )
    deployment = deploy(kernel, config, disk=disk, start=False)
    supervisor = MonitorSupervisor(deployment, plan=plan)
    return SimpleNamespace(
        kernel=kernel, clock=kernel.clock, plan=plan, disk=disk,
        deployment=deployment, supervisor=supervisor,
    )


def sample_set(tsdb, start_ns, end_ns):
    """Every (series, time, value) triple in the window, as a set."""
    out = set()
    for series in tsdb.select([], start_ns, end_ns):
        key = series.labels.items()
        out.update((key, s.time_ns, s.value) for s in series.samples)
    return out


def run_with_one_crash(seed, crash_s=T_CRASH_S, end_s=T_END_S,
                       restart_delay_s=2, before_recover=None):
    rig = build_rig(seed)
    rig.deployment.start()

    def crash_then_recover():
        rig.supervisor.crash()
        if before_recover is not None:
            before_recover(rig)
        rig.clock.call_later(seconds(restart_delay_s), rig.supervisor.recover)

    rig.clock.call_at(seconds(crash_s), crash_then_recover)
    rig.clock.advance(seconds(end_s))
    rig.deployment.stop()
    return rig


def test_crash_recover_continue_loses_at_most_one_flush_interval():
    baseline = build_rig(5)
    baseline.deployment.start()
    baseline.clock.advance(seconds(T_END_S))
    baseline.deployment.stop()

    rig = run_with_one_crash(5)
    assert rig.supervisor.crashes == rig.supervisor.recoveries == 1
    report = rig.supervisor.reports[0]

    crash_ns = seconds(T_CRASH_S)
    expected = sample_set(baseline.deployment.tsdb, 0, crash_ns)
    recovered = sample_set(rig.deployment.tsdb, 0, crash_ns)

    # Recovery never invents data: the recovered pre-crash window is a
    # subset of the uninterrupted run's...
    assert recovered <= expected
    missing = expected - recovered
    # ...and the shortfall is reported *exactly*, sample for sample.
    assert len(missing) == report.samples_lost > 0
    # Every lost sample sits inside the final WAL-flush interval.
    assert all(t > crash_ns - seconds(FLUSH_S) for _key, t, _v in missing)
    # The checkpoint-covered prefix survived whole.
    checkpoint_ns = seconds(CHECKPOINT_S)
    assert sample_set(rig.deployment.tsdb, 0, checkpoint_ns) == sample_set(
        baseline.deployment.tsdb, 0, checkpoint_ns
    )

    # The monitor kept collecting after resurrection, and the loss is
    # served back through the self-telemetry exporter as a real series.
    assert sample_set(rig.deployment.tsdb, crash_ns, seconds(T_END_S)) != set()
    session = rig.deployment.session
    vector = session.query("teemon_recovery_samples_lost")
    assert vector and vector[0][1] == float(report.samples_lost)
    assert session.recovery_stats()["samples_lost"] == report.samples_lost

    # Both process-level events are part of the one fault journal.
    journal = rig.plan.journal_text()
    assert f"{crash_ns} PROC teemon-monitor crash" in journal
    assert "PROC teemon-monitor recover" in journal


def test_a_resurrected_monitor_starts_with_empty_scrape_memos():
    # The per-target series memos live on the scrape manager's health
    # records: a new incarnation gets a new manager, seeded with the
    # recovered up/stale baseline and nothing else.
    rig = build_rig(3)
    rig.deployment.start()
    rig.clock.advance(seconds(30))
    before = rig.deployment.scrape_manager
    learned = before._health  # noqa: SLF001
    assert learned and all(h.series and h.stored for h in learned.values())
    rig.supervisor.crash()
    rig.supervisor.recover()
    after = rig.deployment.scrape_manager
    assert after is not before
    seeded = after._health  # noqa: SLF001
    assert set(seeded) == set(learned)
    assert all(h.series == h.stored == {} for h in seeded.values())
    rig.clock.advance(seconds(10))
    assert all(h.series and h.stored for h in seeded.values())
    rig.deployment.stop()


def test_a_resurrected_scraper_keeps_the_recovered_label_objects():
    # The recovered store is keyed by the Labels the replay decoded; the
    # new scraper writes under those very objects, so its lookups in the
    # index and the WAL routing match by identity.
    rig = build_rig(3)
    rig.deployment.start()
    rig.clock.advance(seconds(30))
    rig.supervisor.crash()
    rig.supervisor.recover()
    recovered = {id(labels) for labels, _ in rig.deployment.tsdb.series_items()}
    rig.clock.advance(seconds(10))
    health = rig.deployment.scrape_manager._health  # noqa: SLF001
    written = [labels for h in health.values()
               for labels in (*h.stored.values(), *h.own.values())]
    assert written and all(id(labels) in recovered for labels in written)
    rig.deployment.stop()


def test_the_dead_incarnation_is_freed_before_the_replay_starts(monkeypatch):
    # A restart returns the dead process's memory before the new one
    # grows: by the time the WAL replay builds the recovered store, the
    # killed incarnation's store must already be unreachable.
    deploy_module = importlib.import_module("repro.teemon.deploy")
    rig = build_rig(3)
    rig.deployment.start()
    rig.clock.advance(seconds(30))
    dead = weakref.ref(rig.deployment.tsdb)
    seen = []
    replay = deploy_module.recover_sharded

    def recover_sharded(*args, **kwargs):
        seen.append(dead())
        return replay(*args, **kwargs)

    monkeypatch.setattr(deploy_module, "recover_sharded", recover_sharded)
    rig.supervisor.crash()
    rig.supervisor.recover()
    assert seen == [None]
    rig.clock.advance(seconds(10))
    assert rig.deployment.session.query("up")
    rig.deployment.stop()


def test_kill_inside_a_wal_commit_group_raises():
    # A group's staged samples are counted as logged but are on no
    # medium yet: dying there would lose them without a trace.
    rig = build_rig(3)
    rig.deployment.start()
    rig.clock.advance(seconds(10))
    with rig.deployment.tsdb.commit_group():
        with pytest.raises(DeploymentError, match="commit group"):
            rig.supervisor.crash()
    assert not rig.deployment.crashed and rig.supervisor.crashes == 0
    rig.supervisor.crash()
    rig.supervisor.recover()
    assert rig.supervisor.reports[0].samples_lost > 0


def test_kill_resurrect_under_the_sharded_profile():
    """Crash recovery with four WAL partitions, whatever profile the
    suite runs under: recovery replays every partition into the one
    index, and the loss ledger must stay exact."""
    def build(seed):
        kernel = Kernel(seed=seed, hostname="crash-host")
        kernel.load_module(SgxDriver())
        rng = DeterministicRng(seed)
        plan = FaultPlan(kernel.clock, rng.fork("plan"))
        disk = SimDisk()
        config = TeemonConfig(
            enable_wal=True,
            wal_flush_every_s=FLUSH_S,
            checkpoint_every_s=CHECKPOINT_S,
            storage_shards=4,
        )
        deployment = deploy(kernel, config, disk=disk, start=False)
        supervisor = MonitorSupervisor(deployment, plan=plan)
        return SimpleNamespace(
            kernel=kernel, clock=kernel.clock, plan=plan,
            deployment=deployment, supervisor=supervisor,
        )

    baseline = build(11)
    baseline.deployment.start()
    baseline.clock.advance(seconds(T_END_S))
    baseline.deployment.stop()

    rig = build(11)
    rig.deployment.start()
    rig.clock.call_at(seconds(T_CRASH_S), rig.supervisor.crash)
    rig.clock.call_at(seconds(T_CRASH_S + 2), rig.supervisor.recover)
    rig.clock.advance(seconds(T_END_S))
    rig.deployment.stop()

    assert rig.supervisor.crashes == rig.supervisor.recoveries == 1
    report = rig.supervisor.reports[0]
    crash_ns = seconds(T_CRASH_S)
    expected = sample_set(baseline.deployment.tsdb, 0, crash_ns)
    recovered = sample_set(rig.deployment.tsdb, 0, crash_ns)
    # Same loss-accounting contract as the unsharded case: no
    # invented data, exact loss accounting, all loss in the final flush
    # interval.
    assert recovered <= expected
    missing = expected - recovered
    assert len(missing) == report.samples_lost
    assert all(t > crash_ns - seconds(FLUSH_S) for _key, t, _v in missing)
    # The resurrected monitor keeps collecting.
    assert sample_set(rig.deployment.tsdb, crash_ns, seconds(T_END_S))


def _runs(data):
    """``(offset, samples)`` of every samples record in a segment."""
    return [(offset, (len(payload) - 5) // 20)
            for offset, payload, _ok in segment_frames(data)
            if payload[0] == RECORD_SAMPLES]


def test_corrupt_wal_record_is_quarantined_without_aborting_recovery():
    # Between the kill and the recovery, rot one durable run in the
    # live segment — the CRC must catch it, recovery must complete.
    corrupted = []

    def rot_one_run(rig):
        log = rig.deployment.wal
        segment = getattr(log, "writers", [log])[0].current_segment
        offset, samples = _runs(rig.disk.read(segment))[0]
        rig.disk._files[segment][offset + 8 + 10] ^= 0x01  # noqa: SLF001
        corrupted.append((segment, offset, samples))

    rig = run_with_one_crash(7, before_recover=rot_one_run)
    segment, offset, samples = corrupted[0]
    report = rig.supervisor.reports[0]
    assert report.records_quarantined == samples > 0
    assert report.records_replayed > 0  # the rest of the segment replayed
    assert rig.supervisor.recoveries == 1  # recovery did not abort
    assert (rig.deployment.session.recovery_stats()["records_quarantined"]
            == samples)
    journal = rig.plan.journal_text()
    assert f"DISK {segment}@{offset} wal-record-quarantined" in journal
    # The quarantined run is part of the exact loss accounting.
    assert report.samples_lost >= report.records_quarantined


def _tear_tail(rig, segment):
    del rig.disk._files[segment][-5:]  # noqa: SLF001


def _rot_two_records(rig, segment):
    data = rig.disk._files[segment]  # noqa: SLF001
    runs = _runs(bytes(data))
    data[runs[0][0] + 8] ^= 0x01      # first run: kind byte
    data[runs[-1][0] + 8 + 24] ^= 0x80  # last run: a value byte


def _splice_non_canonical_record(rig, segment):
    pairs = (("job", "x"), ("__name__", "spliced"))  # unsorted
    rig.disk._files[segment].extend(  # noqa: SLF001
        reference_series_record(4000, pairs)
        + reference_sample_run([(4000, 1, 1.0)]))


def _replay_per_record(disk, directory, crash_report):
    """What :func:`wal.recover` must amount to, the slow way: the newest
    checkpoint, then every sample of every later segment decoded from
    scratch and appended one at a time."""
    def seq(name):
        return int(name.rsplit("-", 1)[1].split(".")[0])

    checkpoint = disk.list_files(f"{directory}/checkpoint-")[-1]
    tsdb = archive.restore(disk.read(checkpoint))
    lost = reference_crash_loss(crash_report, f"{directory}/segment-")
    for name in disk.list_files(f"{directory}/segment-"):
        if seq(name) < seq(checkpoint):
            continue
        samples, _cursors, gone = reference_replay_v3(disk.read(name))
        lost += gone
        for labels, time_ns, value in samples:
            try:
                tsdb.append(labels, time_ns, value)
            except TsdbError:
                pass
    return tsdb, lost


@pytest.mark.parametrize("damage", [
    None, _tear_tail, _rot_two_records, _splice_non_canonical_record,
], ids=["crash-only", "torn-tail", "bit-rot", "non-canonical"])
def test_replay_interning_recovers_what_per_record_decoding_does(damage):
    # recover() parses each series' labels once per segment, gathers
    # runs across segments and lands each series in one call; the
    # control decodes every record from scratch and appends one sample
    # at a time.  Same medium, same crash evidence -> same database,
    # same series order, same loss.
    rig = build_rig(7)
    rig.deployment.start()
    rig.clock.advance(seconds(T_CRASH_S))
    segments = [
        writer.current_segment
        for writer in getattr(rig.deployment.wal, "writers",
                              [rig.deployment.wal])
    ]
    crash_report = rig.supervisor.crash()
    if damage is not None:
        for segment in segments:
            damage(rig, segment)
    config = rig.deployment.config
    end_ns = rig.clock.now_ns + 1

    def replay():
        plan = FaultPlan(rig.clock, DeterministicRng(7).fork("plan"))
        if config.storage_shards > 1:
            tsdb, report = wal.recover_sharded(
                rig.disk, config.wal_dir, config.storage_shards,
                crash_report=crash_report, plan=plan)
        else:
            tsdb, report = wal.recover(
                rig.disk, config.wal_dir, crash_report=crash_report,
                plan=plan)
        return tsdb, report, plan.journal_text()

    tsdb, report, journal = replay()
    assert replay()[2] == journal
    directories = [segment.rsplit("/", 1)[0] for segment in segments]
    lost = 0
    for index, directory in enumerate(directories):
        # What partition ``index`` logs, in the one index's order.
        view = [(labels, storage) for labels, storage in tsdb.series_items()
                if shard_for(labels, len(directories)) == index]
        control, gone = _replay_per_record(rig.disk, directory, crash_report)
        lost += gone
        assert ([labels for labels, _s in view]
                == [labels for labels, _s in control.series_items()])
        assert {
            (labels.items(), sample.time_ns, sample.value)
            for labels, storage in view
            for sample in storage.window(0, end_ns)
        } == sample_set(control, 0, end_ns)
    assert report.samples_lost == lost
    assert report.records_replayed > 0
    if damage in (_rot_two_records, _splice_non_canonical_record):
        assert report.records_quarantined >= len(segments)
        assert journal.count("wal-record-quarantined") >= 2 * len(segments)
    if damage is _tear_tail:
        assert report.torn_tails >= len(segments)


def test_scrape_health_carries_across_the_restart():
    rig = run_with_one_crash(13, crash_s=47, end_s=120)
    manager = rig.deployment.scrape_manager
    assert rig.supervisor.recoveries == 1
    # Healthy targets stay healthy across the restart: no spurious down
    # samples, no counted flaps, no staleness — the recovered scrape
    # state must be indistinguishable from an unbroken run's.
    for series in rig.deployment.tsdb.select_metric(
        "up", 0, rig.clock.now_ns + 1
    ):
        assert all(s.value == 1.0 for s in series.samples), series.labels
    assert manager.flaps_total == 0
    assert rig.deployment.session.stale_targets() == []
    assert rig.deployment.session.down_targets() == []
    health = rig.deployment.session.target_health()
    assert health and all(h.up and h.observed for h in health.values())


def test_removed_target_stale_marker_clears_on_rejoin_after_restart():
    """Retired-target staleness memory survives a crash.

    A target retired by discovery gets a ``scrape_target_stale = 1``
    marker, and the manager remembers its identity so a rejoin clears
    the marker on the first healthy scrape.  That memory is monitor RAM,
    so recovery reseeds it from the recovered TSDB's markers — without
    that, a retire → crash → recover → rejoin sequence would leave the
    marker set forever.
    """
    kernel = Kernel(seed=17, hostname="mon-0")
    kernel.load_module(SgxDriver())
    network = HttpNetwork()
    registry = CollectorRegistry()
    registry.counter("events_total", "e")
    network.register("node-a", 9100, "/metrics",
                     lambda: encode_registry(registry))
    target = ScrapeTarget(job="fleet", instance="node-a",
                          url="http://node-a:9100/metrics")
    discovered = [target]

    deployment = deploy(
        kernel, TeemonConfig(enable_wal=True, wal_flush_every_s=5.0),
        network=network, start=False,
    )
    deployment.add_discovery(lambda: list(discovered))
    supervisor = MonitorSupervisor(deployment)
    deployment.start()
    clock = kernel.clock

    clock.advance(seconds(20))  # scraped healthy
    discovered.clear()          # discovery retires the target
    clock.advance(seconds(20))  # marker written and WAL-flushed
    assert deployment.tsdb.latest(
        "scrape_target_stale", job="fleet", instance="node-a"
    ).value == 1.0

    supervisor.crash()
    clock.advance(seconds(2))
    supervisor.recover()

    discovered.append(target)   # the node rejoins post-recovery
    clock.advance(seconds(20))
    assert deployment.tsdb.latest(
        "scrape_target_stale", job="fleet", instance="node-a"
    ).value == 0.0
    deployment.stop()


def test_same_seed_crashed_runs_are_identical():
    def run():
        rig = run_with_one_crash(23)
        return (
            rig.plan.journal_text(),
            sample_set(rig.deployment.tsdb, 0, rig.clock.now_ns + 1),
            rig.supervisor.reports[0],
            rig.deployment.session.recovery_stats(),
        )

    first, second = run(), run()
    assert first[0] == second[0]  # byte-identical fault journal
    assert first[1] == second[1]  # identical recovered database content
    assert first[2] == second[2]  # identical recovery report
    assert first[3] == second[3]  # identical cumulative stats


def test_graceful_stop_loses_nothing():
    from repro.pmag.wal import recover, recover_sharded

    rig = build_rig(31)
    rig.deployment.start()
    rig.clock.advance(seconds(60))
    rig.deployment.stop()  # flushes the WAL on the way out
    live = sample_set(rig.deployment.tsdb, 0, rig.clock.now_ns + 1)
    config = rig.deployment.config
    if config.storage_shards > 1:
        recovered, report = recover_sharded(
            rig.disk, config.wal_dir, config.storage_shards,
            crash_report=rig.disk.crash(),
        )
    else:
        recovered, report = recover(rig.disk, crash_report=rig.disk.crash())
    assert report.samples_lost == 0
    assert sample_set(recovered, 0, rig.clock.now_ns + 1) == live
