"""Kill-loop soak: repeated seeded crashes of the monitoring process.

A supervised deployment is killed by a :class:`CrashInjector` at seeded
virtual times over a long horizon — crash, power-fail the disk, recover
from checkpoint + WAL, continue — while the test holds the durability
contract at every single crash:

* with clean truncation, the loss equals the WAL's own unflushed-record
  count at the instant of the kill, crash for crash (the flush interval
  is the loss bound, and the accounting is exact);
* with torn writes, the loss can only shrink (torn prefixes retain
  records), never grow;
* the same seed reproduces the whole kill-loop byte for byte: crash
  schedule, fault journal, recovery reports, final database content.

Kept in its own module so CI can run it as a separate step and its
runtime stays visible (see .github/workflows/ci.yml).
"""

from collections import Counter
from types import SimpleNamespace

from tests.test_crash_recovery import sample_set

from repro.faults import CrashInjector, FaultPlan, TornWriteInjector
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.sgx.driver import SgxDriver
from repro.teemon import MonitorSupervisor, TeemonConfig, deploy

HORIZON_S = 600
FLUSH_S = 12.0
INTERVAL_S = 5.0


def run_kill_loop(seed, torn=False, shards=1):
    """Drive one seeded kill-loop to the horizon; returns the wreckage."""
    kernel = Kernel(seed=seed, hostname="soak-host")
    kernel.load_module(SgxDriver())
    rng = DeterministicRng(seed)
    plan = FaultPlan(kernel.clock, rng.fork("plan"))
    disk = SimDisk()
    if torn:
        TornWriteInjector(rng.fork("torn"), probability=0.7,
                          plan=plan).attach(disk)
    config = TeemonConfig(
        enable_wal=True, wal_flush_every_s=FLUSH_S, checkpoint_every_s=60.0,
        storage_shards=shards,
    )
    deployment = deploy(kernel, config, disk=disk, start=False)
    supervisor = MonitorSupervisor(deployment, plan=plan)

    # Capture the WAL's unflushed count at each kill: with clean
    # truncation it is exactly what the crash is about to destroy —
    # per partition, when the WAL is partitioned.
    unflushed_at_crash = []
    unflushed_by_shard_at_crash = []
    real_crash = supervisor.crash

    def crash():
        unflushed_at_crash.append(deployment.wal.unflushed_records)
        if shards > 1:
            unflushed_by_shard_at_crash.append(
                [writer.unflushed_records for writer in deployment.wal.writers]
            )
        return real_crash()

    supervisor.crash = crash
    injector = CrashInjector(
        rng.fork("crash"), mean_interval_s=45.0, min_interval_s=15.0,
        restart_delay_s=2.0,
    )
    deployment.start()
    times = injector.arm(kernel.clock, supervisor, seconds(HORIZON_S))
    # Run a little past the horizon so a recovery scheduled just before
    # it still fires before the graceful stop.
    kernel.clock.advance(seconds(HORIZON_S + 5))
    deployment.stop()
    return SimpleNamespace(
        kernel=kernel, clock=kernel.clock, plan=plan, disk=disk,
        deployment=deployment, supervisor=supervisor, crash_times=times,
        unflushed_at_crash=unflushed_at_crash,
        unflushed_by_shard_at_crash=unflushed_by_shard_at_crash,
    )


def _max_appends_per_instant():
    """Peak ingest of one scrape instant, measured crash-free."""
    kernel = Kernel(seed=1, hostname="soak-host")
    kernel.load_module(SgxDriver())
    deployment = deploy(kernel, TeemonConfig(
        enable_wal=True, wal_flush_every_s=FLUSH_S, checkpoint_every_s=60.0,
    ), disk=SimDisk())
    kernel.clock.advance(seconds(60))
    deployment.stop()
    per_instant = Counter(
        t for _key, t, _v in sample_set(deployment.tsdb, 0, seconds(61))
    )
    return max(per_instant.values())


def test_kill_loop_loss_is_exact_and_flush_bounded():
    soak = run_kill_loop(97)
    supervisor = soak.supervisor

    assert len(soak.crash_times) >= 5  # the loop really looped
    assert supervisor.crashes == supervisor.recoveries == len(soak.crash_times)
    assert soak.plan.counts()["crash"] == supervisor.crashes
    assert not soak.deployment.crashed

    # Exactness: every crash destroyed precisely the records the WAL had
    # not yet flushed — nothing more, nothing less, at every iteration.
    losses = [report.samples_lost for report in supervisor.reports]
    assert losses == soak.unflushed_at_crash
    assert sum(losses) == supervisor.total_samples_lost() > 0
    assert (soak.deployment.session.recovery_stats()["samples_lost"]
            == sum(losses))

    # The flush interval bounds the loss: no crash can destroy more than
    # the instants one unflushed window spans, at peak ingest.
    budget = (FLUSH_S / INTERVAL_S + 1) * _max_appends_per_instant()
    assert all(loss <= budget for loss in losses)

    # Nothing was corrupt in a clean kill-loop; replay did real work.
    stats = soak.deployment.session.recovery_stats()
    assert stats["records_quarantined"] == 0
    assert stats["segments_quarantined"] == 0
    assert stats["records_replayed"] > 0

    # The monitor ends the horizon healthy and still collecting.
    health = soak.deployment.session.target_health()
    assert health and all(h.up for h in health.values())
    assert sample_set(
        soak.deployment.tsdb, seconds(HORIZON_S), soak.clock.now_ns + 1
    )


def test_kill_loop_with_torn_writes_never_loses_more():
    soak = run_kill_loop(97, torn=True)
    losses = [report.samples_lost for report in soak.supervisor.reports]
    # A torn prefix can only save records the clean truncation would
    # have destroyed.
    assert all(
        loss <= unflushed
        for loss, unflushed in zip(losses, soak.unflushed_at_crash)
    )
    assert soak.plan.counts().get("disk-torn", 0) > 0  # tears really happened
    assert sum(soak.supervisor.reports[k].torn_tails
               for k in range(len(losses))) > 0
    assert not soak.deployment.crashed


def test_sharded_kill_loop_loss_is_exact_per_shard():
    """The 4-partition durability contract: each crash's loss
    decomposes exactly into the per-partition unflushed windows, and the
    resurrected deployment carries the partitioned log forward."""
    soak = run_kill_loop(97, shards=4)
    supervisor = soak.supervisor

    assert len(soak.crash_times) >= 5
    assert supervisor.crashes == supervisor.recoveries == len(soak.crash_times)
    assert not soak.deployment.crashed

    # Every resurrection restored the 4-partition log and its telemetry.
    assert len(soak.deployment.wal.writers) == 4
    assert soak.deployment.session.storage_stats()["shards"] == 4

    # Per-crash, per-partition exactness: partition k lost precisely the
    # records its own writer had not flushed — crash for crash,
    # partition for partition.
    assert len(soak.unflushed_by_shard_at_crash) == supervisor.crashes
    for report, unflushed in zip(
        supervisor.reports, soak.unflushed_by_shard_at_crash
    ):
        assert report.samples_lost_by_shard == unflushed
        assert report.samples_lost == sum(unflushed)
    # ...which sums to the same whole-deployment accounting as ever.
    losses = [report.samples_lost for report in supervisor.reports]
    assert losses == soak.unflushed_at_crash
    assert sum(losses) == supervisor.total_samples_lost() > 0
    assert (soak.deployment.session.recovery_stats()["samples_lost"]
            == sum(losses))

    # More than one partition actually took losses across the loop —
    # the decomposition is not vacuous.
    lost_per_shard = [
        sum(by_shard[k] for by_shard in soak.unflushed_by_shard_at_crash)
        for k in range(4)
    ]
    assert sum(1 for lost in lost_per_shard if lost) > 1

    # The monitor ends the horizon healthy and still collecting.
    health = soak.deployment.session.target_health()
    assert health and all(h.up for h in health.values())
    assert sample_set(
        soak.deployment.tsdb, seconds(HORIZON_S), soak.clock.now_ns + 1
    )


def test_sharded_kill_loops_are_seed_deterministic():
    def run():
        soak = run_kill_loop(53, shards=4)
        return (
            soak.crash_times,
            soak.plan.journal_text(),
            [r.samples_lost_by_shard for r in soak.supervisor.reports],
            sample_set(soak.deployment.tsdb, 0, soak.clock.now_ns + 1),
        )

    first, second = run(), run()
    assert first == second


def test_same_seed_kill_loops_are_byte_identical():
    def run():
        soak = run_kill_loop(41)
        return (
            soak.crash_times,
            soak.plan.journal_text(),
            [report.samples_lost for report in soak.supervisor.reports],
            soak.supervisor.reports,
            sample_set(soak.deployment.tsdb, 0, soak.clock.now_ns + 1),
            soak.deployment.session.recovery_stats(),
        )

    first, second = run(), run()
    assert first[0] == second[0]  # identical crash schedule
    assert first[1] == second[1]  # byte-identical fault journal
    assert first[2] == second[2]  # identical per-crash losses
    assert first[3] == second[3]  # identical recovery reports
    assert first[4] == second[4]  # identical final database content
    assert first[5] == second[5]  # identical cumulative stats
