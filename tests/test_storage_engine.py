"""One index, a partitioned write-ahead log.

``storage_shards`` splits the WAL, never the store: every series lives in
the one :class:`Tsdb`, and each is logged in the partition
:func:`shard_for` names.  This file holds:

* routing is stable and spreads series over the partitions;
* the store with a partitioned log attached (:func:`partitioned`, the
  shape ``storage_shards=N`` deploys) ingests, rejects, deletes and
  expires like the store without one;
* the partitioned log against :mod:`tests.sharded_oracle` — N whole
  stores with one log each, the engine it replaced: one seeded sequence
  of batches, flushes, checkpoints, retention, bit rot, torn crashes
  and recoveries leaves the same bytes on both media, recovers the same
  samples and reports the same loss, partition for partition;
* archives: one layout, restored into the one index;
* the deployment's per-partition storage telemetry.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import TsdbError
from repro.pmag import wal
from repro.pmag.archive import restore, snapshot
from repro.pmag.model import Labels, Matcher
from repro.pmag.query.engine import QueryEngine
from repro.pmag.remote_write import decode_frame_blocks, encode_frame
from repro.pmag.storage import (
    ShardedTsdb,
    build_storage_engine,
    series_fingerprint,
    shard_for,
)
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import PartitionMap, ShardedWal, WalWriter, open_log
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk

from tests import sharded_oracle
from tests.codec_oracle import reference_archive_body, reference_deflated_snapshot
from tests.test_chaos import MIXED, build_rig, drive, tsdb_digest


def partitioned(partitions=4, retention_ns=None, disk=None):
    """The store as ``storage_shards=partitions`` deploys it with the WAL
    on: one index writing through a partitioned log."""
    tsdb = Tsdb(retention_ns=retention_ns)
    tsdb.attach_wal(open_log(disk if disk is not None else SimDisk(), "wal",
                             PartitionMap(partitions), 0))
    return tsdb


def _logged(tsdb):
    """Series each partition's writer has logged, in partition order."""
    return [set(writer._series) for writer in tsdb._wal.writers]  # noqa: SLF001


# ---------------------------------------------------------------------------
# Routing is stable
# ---------------------------------------------------------------------------

def test_fingerprint_is_stable_across_processes():
    # The fingerprint is part of the on-disk contract: per-partition WAL
    # directories assume a series routes to the same partition forever.
    # Pin the value so an accidental change fails loudly.
    labels = Labels.of("ebpf_syscalls_total", name="read", job="ebpf")
    assert series_fingerprint(labels) == 4197115419
    assert series_fingerprint(labels) == series_fingerprint(
        Labels.of("ebpf_syscalls_total", job="ebpf", name="read")
    )


def test_fingerprint_separators_prevent_structural_collisions():
    assert series_fingerprint(
        Labels({"__name__": "m", "a": "b\x1ec"})
    ) != series_fingerprint(Labels({"__name__": "m", "a": "b", "c": ""}))


#: Label sets whose fingerprints collide: a pair told apart only by the
#: separators a value may hold, and a same-shaped pair found by search.
_COLLIDING = (
    (Labels({"__name__": "m", "a": "b\x1ec\x1f"}),
     Labels({"__name__": "m", "a": "b", "c": ""})),
    (Labels({"__name__": "m", "a": "v98918"}),
     Labels({"__name__": "m", "a": "v9720002"})),
)


def _listed(selected):
    return [(labels, list(times), list(values))
            for labels, times, values, _reset_free in selected]


@pytest.mark.parametrize("pair", _COLLIDING)
def test_colliding_fingerprints_stay_distinct_series(pair):
    # A fingerprint picks a partition and guards a frame block's
    # integrity; series are keyed by their labels, so a collision only
    # shares a partition.
    first, second = pair
    assert first != second
    assert series_fingerprint(first) == series_fingerprint(second)
    entries = [(first, seconds(1), 1.0), (second, seconds(1), 2.0),
               (first, seconds(2), 3.0), (second, seconds(2), 4.0)]
    expected = sorted([
        (first, [seconds(1), seconds(2)], [1.0, 3.0]),
        (second, [seconds(1), seconds(2)], [2.0, 4.0]),
    ], key=lambda entry: entry[0].items())
    store = partitioned(4)
    assert store.append_batch(entries) == []
    assert _logged(store)[shard_for(first, 4)] == {first, second}
    assert _listed(store.select_arrays([], 0, seconds(3))) == expected
    interned = {}
    for seq in (1, 2):  # the second decode meets the interned headers
        _sender, _epoch, _seq, blocks = decode_frame_blocks(
            encode_frame("leaf", 1, seq, entries), interned)
        assert [(labels, samples) for _fp, labels, samples in blocks] == [
            (first, [(seconds(1), 1.0), (seconds(2), 3.0)]),
            (second, [(seconds(1), 2.0), (seconds(2), 4.0)]),
        ]
        receiver = partitioned(4)
        assert receiver.append_fingerprinted(blocks) == 0
        assert _listed(receiver.select_arrays([], 0, seconds(3))) == expected


def test_every_series_lives_on_exactly_one_shard():
    store = partitioned(4)
    for i in range(40):
        store.append_sample("metric", seconds(1), float(i), idx=str(i))
    logged = _logged(store)
    assert sum(map(len, logged)) == store.series_count() == 40
    assert sum(1 for part in logged if part) > 1  # routing actually spreads
    for k, part in enumerate(logged):
        assert all(shard_for(labels, 4) == k for labels in part)
    # The partition view the deployment reports covers the one index.
    stats = PartitionMap(4)
    assert sorted(stats[labels] for labels, _s in store.series_items()) == (
        sorted(k for k, part in enumerate(logged) for _ in part))


# ---------------------------------------------------------------------------
# One class under two names
# ---------------------------------------------------------------------------

#: The entry points written once, on the store, in terms of the others.
_SHARED = (
    "append", "append_sample", "append_fingerprinted", "select",
    "select_metric", "metric_names", "select_rollups", "compact",
)


def test_sharded_tsdb_is_the_one_index_and_takes_no_shard_count():
    # ShardedTsdb stays a name for the one class.  A leftover
    # ShardedTsdb(4) must fail, not build a store with a 4 ns retention.
    assert ShardedTsdb is Tsdb
    with pytest.raises(TypeError):
        ShardedTsdb(4)
    assert Tsdb(retention_ns=4).retention_ns == 4
    assert type(build_storage_engine(4)) is Tsdb


@pytest.mark.parametrize("name", _SHARED)
def test_sharded_engine_binds_the_monolith_function(name):
    assert vars(ShardedTsdb)[name] is vars(Tsdb)[name]


# ---------------------------------------------------------------------------
# The partitioned log against the sharded oracle
# ---------------------------------------------------------------------------

_POOL = [Labels.of("m", i=str(i), job="j") for i in range(8)] + [
    Labels({"job": "nameless"})]  # no metric name: rejected
#: Small enough that batches straddle flush and rotation boundaries.
_FLUSH_EVERY, _SEGMENT_MAX, _RETENTION_NS = 8, 13, 60

_KINDS = ("batch",) * 9 + ("flush", "flush", "checkpoint", "cursor",
                          "retention", "retention", "rot", "crash", "crash",
                          "crash")


def _ops(rng, count):
    """A seeded sequence of what can happen to a log, mostly batches so
    crashes find unflushed samples to lose."""
    for _ in range(count):
        kind = rng.choice(_KINDS)
        if kind == "batch":
            yield kind, [(rng.randrange(len(_POOL)), rng.randint(-1, 3))
                         for _ in range(rng.randint(0, 12))]
        elif kind == "crash":
            # Torn bytes: none (the whole unflushed tail is lost) or a prefix.
            yield kind, rng.choice((0, rng.randint(1, 300)))
        else:
            yield kind, rng.randrange(2**20)


class _Side:
    """One store, its log and its disk: the production layout or the
    oracle's."""

    def __init__(self, partitions, oracle):
        self.partitions, self.oracle = partitions, oracle
        self.disk = SimDisk()
        #: Bytes of each unflushed tail the next crash leaves behind.
        self.torn = 0
        self.disk.add_crash_fault(lambda _name, _tail: self.torn)
        self.store = (
            sharded_oracle.ShardedTsdb(partitions, retention_ns=_RETENTION_NS)
            if oracle else Tsdb(retention_ns=_RETENTION_NS))
        self._open()

    def _open(self):
        if self.oracle:
            self.log = sharded_oracle.open_log(
                self.disk, "wal", self.store, _FLUSH_EVERY, _SEGMENT_MAX)
            return
        self.log = ShardedWal([
            WalWriter(self.disk, wal.shard_directory("wal", index),
                      _FLUSH_EVERY, _SEGMENT_MAX)
            for index in range(self.partitions)
        ], PartitionMap(self.partitions))
        self.store.attach_wal(self.log)

    def crash_and_recover(self, torn):
        self.torn = torn
        crash_report = self.disk.crash()
        recover = (sharded_oracle.recover_sharded if self.oracle
                   else wal.recover_sharded)
        self.store, report = recover(
            self.disk, "wal", self.partitions, retention_ns=_RETENTION_NS,
            crash_report=crash_report)
        self._open()
        return report

    def rot(self, pick):
        names = self.disk.list_files()
        data = self.disk._files[names[pick % len(names)]]  # noqa: SLF001
        if data:
            data[pick % len(data)] ^= 0x40

    def medium(self):
        return [(name, self.disk.read(name), self.disk.synced_size(name))
                for name in self.disk.list_files()]

    def contents(self):
        return {
            labels: [(s.time_ns, s.value)
                     for s in storage.window(-2**63, 2**63 - 1)]
            for labels, storage in self.store.series_items()
        }


@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partitioned_log_matches_the_sharded_oracle(partitions, seed):
    index, oracle = _Side(partitions, False), _Side(partitions, True)
    sides = (index, oracle)
    newest = {}
    now = 0
    for op, arg in _ops(random.Random(seed), 80):
        if op == "batch":
            entries = []
            for pick, step in arg:
                labels = _POOL[pick]
                time_ns = newest.get(labels, 0) + step
                newest[labels] = max(newest.get(labels, 0), time_ns)
                now = max(now, time_ns)
                entries.append((labels, time_ns, time_ns / 4))
            assert (index.store.append_batch(entries)
                    == oracle.store.append_batch(entries))
        elif op == "flush":
            for side in sides:
                side.log.flush()
        elif op == "checkpoint":
            for side in sides:
                side.log.checkpoint(side.store)
        elif op == "cursor":
            for side in sides:
                side.log.append_cursor("rules/a", arg)
        elif op == "retention":
            now += arg % 120
            assert (index.store.enforce_retention(now)
                    == oracle.store.enforce_retention(now))
        elif op == "rot":
            # One bit flipped at the same place on both media.
            for side in sides:
                side.rot(arg)
        else:
            report = index.crash_and_recover(arg)
            assert report == oracle.crash_and_recover(arg)
            assert len(report.shards) == partitions
            assert report.samples_lost == sum(report.samples_lost_by_shard)
        assert index.medium() == oracle.medium()
        assert index.contents() == oracle.contents()
        assert index.store.total_appends == oracle.store.total_appends


def _two_partition_log():
    disk = SimDisk()
    store = partitioned(2, disk=disk)
    for i in range(12):
        store.append_sample("m", seconds(1), float(i), idx=str(i))
    store._wal.checkpoint(store)  # noqa: SLF001
    store.append_batch([(labels, seconds(2), 1.0)
                        for labels, _s in list(store.series_items())])
    store._wal.flush()  # noqa: SLF001
    return disk, store


def test_recovery_refuses_a_log_written_with_another_partition_count():
    disk, _store = _two_partition_log()
    with pytest.raises(TsdbError, match="different shard count"):
        wal.recover_sharded(disk, "wal", 4)


def test_a_checkpoint_failing_part_way_leaves_the_index_to_the_next_one():
    disk, store = _two_partition_log()
    expected, _report = wal.recover_sharded(disk, "wal", 2)
    # A newer checkpoint in partition 1 whose checksum holds but whose
    # third series repeats its first: it decodes two series, then fails.
    mine = [labels for labels, _s in store.series_items()
            if shard_for(labels, 2) == 1]
    body = reference_archive_body(
        [(labels, [(seconds(3), 9.0)]) for labels in mine[:2] + mine[:1]])
    disk.write("wal/shard-01/checkpoint-99999999.ckpt",
               bytes(reference_deflated_snapshot(body)))
    recovered, report = wal.recover_sharded(disk, "wal", 2)
    assert report.checkpoints_quarantined == 1
    assert [r.checkpoints_quarantined for r in report.shards] == [0, 1]
    # Nothing of the two series it decoded landed.
    assert recovered.series_count() == 12
    assert (recovered.select([], 0, seconds(9))
            == expected.select([], 0, seconds(9)))
    assert recovered.total_appends == expected.total_appends


# ---------------------------------------------------------------------------
# The store with a partitioned log ingests like the one without
# ---------------------------------------------------------------------------

def test_out_of_order_rejection_survives_sharding():
    store = partitioned(3)
    labels = Labels.of("m", idx="1")
    store.append(labels, seconds(10), 1.0)
    with pytest.raises(TsdbError, match="out-of-order"):
        store.append(labels, seconds(5), 2.0)
    assert store.sample_count() == 1
    assert store._wal.records_total == 1  # noqa: SLF001


def test_delete_and_retention_fan_out():
    mono = Tsdb(retention_ns=seconds(700))
    store = partitioned(4, retention_ns=seconds(700))
    for engine in (mono, store):
        for i in range(8):
            # 130 samples per series: the first chunk (120 samples,
            # CHUNK_SIZE) ages out whole under chunk-granular retention.
            for step in range(130):
                engine.append_sample(
                    "m", (step + 1) * seconds(5), float(i), idx=str(i)
                )
    assert store.delete_series([Matcher.eq("idx", "3")]) == 1
    assert mono.delete_series([Matcher.eq("idx", "3")]) == 1
    assert store.series_count() == mono.series_count() == 7
    # Cutoff 610s: each series' first chunk (120 samples, t=5..600s)
    # ages out whole; the 10-sample tail chunk stays.
    now_ns = seconds(1310)
    assert store.enforce_retention(now_ns) == mono.enforce_retention(now_ns) > 0
    assert store.sample_count() == mono.sample_count()
    assert store.select([], 0, now_ns) == mono.select([], 0, now_ns)


# ---------------------------------------------------------------------------
# Chaos parity: the partition count is invisible to the pipeline
# ---------------------------------------------------------------------------

def test_chaos_digest_unchanged_by_the_engine_builder():
    # build_storage_engine(1) must be the exact seed path: same class,
    # same bytes, same digest under the full mixed-fault chaos run.
    def digest(factory):
        rig = build_rig(31, tsdb_factory=factory, **MIXED)
        drive(rig, 120)
        return (rig.plan.journal_text(), tsdb_digest(rig),
                rig.manager.self_stats())

    baseline = digest(None)
    via_builder = digest(lambda retention_ns=None: build_storage_engine(
        1, retention_ns=retention_ns
    ))
    assert via_builder == baseline
    assert type(build_storage_engine(1)) is Tsdb


def test_chaos_digest_identical_across_shard_counts():
    def digest(shards):
        factory = lambda retention_ns=None: partitioned(  # noqa: E731
            shards, retention_ns=retention_ns
        )
        rig = build_rig(31, tsdb_factory=factory, **MIXED)
        drive(rig, 120)
        return (rig.plan.journal_text(), tsdb_digest(rig),
                rig.manager.self_stats())

    one, four = digest(1), digest(4)
    assert four == one


_COMPOSABLE = (
    "avg_over_time", "min_over_time", "max_over_time",
    "sum_over_time", "count_over_time",
)


# ---------------------------------------------------------------------------
# The oracle's fan-out reads: bit-identical to the index on any data
# ---------------------------------------------------------------------------

def _ingest_fractions(engine) -> None:
    """Half an hour of twelve series in three groups, values with no
    exact binary form: float addition re-associated across shards or
    served from a prefix sum would show in the last bits."""
    for series in range(12):
        for step in range(180):
            engine.append_sample(
                "signal", (step + 1) * seconds(10),
                ((step * 7 + series * 13) % 1000) * 0.1 + series / 3.0,
                idx=str(series), g=str(series % 3),
            )


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_sharded_aggregations_are_bit_identical_to_the_monolith(shards):
    # The oracle's select merges its shards back into the index's
    # order; the sample sets the differential test compares are read
    # through it.
    mono = Tsdb()
    sharded = sharded_oracle.ShardedTsdb(shards)
    now_ns = seconds(1800)
    for db in (mono, sharded):
        _ingest_fractions(db)
    mono_engine, sharded_engine = QueryEngine(mono), QueryEngine(sharded)
    # A grid on whole minutes and one that is not.
    grids = (
        (seconds(600), now_ns, seconds(300)),
        (seconds(610), now_ns - seconds(10), seconds(70)),
    )
    for op in ("sum", "avg", "min", "max", "count"):
        for grouping in ("", " by (g)", " without (idx)"):
            for function in _COMPOSABLE:
                query = f"{op}{grouping} ({function}(signal[10m]))"
                for grid in grids:
                    expect = mono_engine.range_query(query, *grid)
                    got = sharded_engine.range_query(query, *grid)
                    assert expect and got == expect, (query, grid)
                    assert repr(got) == repr(expect), (query, grid)


# ---------------------------------------------------------------------------
# The deployment thread-through: storage telemetry out
# ---------------------------------------------------------------------------

def test_deployment_serves_storage_telemetry():
    from repro.simkernel.kernel import Kernel
    from repro.sgx.driver import SgxDriver
    from repro.teemon import TeemonConfig, deploy

    for enable_wal in (False, True):
        kernel = Kernel(seed=7, hostname="storage-host")
        kernel.load_module(SgxDriver())
        deployment = deploy(kernel, TeemonConfig(
            storage_shards=4, enable_wal=enable_wal))
        kernel.clock.advance(seconds(600))
        session = deployment.session

        stats = session.storage_stats()
        assert stats["shards"] == 4
        assert [sorted(shard) for shard in stats["per_shard"]] == (
            [["samples", "series"]] * 4
        )
        assert sum(s["series"] for s in stats["per_shard"]) == (
            deployment.tsdb.series_count()
        )
        assert sum(s["samples"] for s in stats["per_shard"]) == (
            deployment.tsdb.sample_count()
        )
        routes = PartitionMap(4)
        assert [s["series"] for s in stats["per_shard"]] == [
            sum(1 for labels, _s in deployment.tsdb.series_items()
                if routes[labels] == k)
            for k in range(4)
        ]

        # The family round-trips through the teemon_self scrape as real
        # queryable series.
        assert session.query("teemon_storage_shards")[0][1] == 4.0
        per_shard = session.query("teemon_storage_samples")
        assert {labels.get("shard") for labels, _v in per_shard} == {
            "0", "1", "2", "3"
        }
        deployment.stop()


# ---------------------------------------------------------------------------
# Archives: one layout, restored into the one index
# ---------------------------------------------------------------------------

def _populated(engine):
    for i in range(12):
        for step in range(5):
            engine.append_sample(
                "m", (step + 1) * seconds(5), float(i + step), idx=str(i)
            )
    return engine


def test_sharded_snapshot_restores_to_a_monolith():
    # The oracle snapshots shard-major; restore takes any series order.
    original = _populated(sharded_oracle.ShardedTsdb(4))
    data = snapshot(original)
    restored = restore(data)
    assert type(restored) is Tsdb
    assert restored.series_count() == original.series_count()
    assert sorted(restored.select([], 0, seconds(100)), key=repr) == sorted(
        original.select([], 0, seconds(100)), key=repr
    )
    # Series keep the snapshot's order, so a re-snapshot is byte-identical.
    assert snapshot(restored) == data


def test_monolith_snapshots_stay_version3():
    original = _populated(Tsdb())
    data = snapshot(original)
    import struct

    (version,) = struct.unpack_from("<H", data, 6)
    assert version == 3
    restored = restore(data)
    assert type(restored) is Tsdb
    assert restored.select([], 0, seconds(100)) == original.select(
        [], 0, seconds(100)
    )


def test_v3_checksum_detects_bitflip():
    data = bytearray(snapshot(_populated(partitioned(2))))
    data[len(data) // 2] ^= 0x40
    with pytest.raises(TsdbError, match="checksum"):
        restore(bytes(data))


def test_one_shard_sharded_engine_still_archives():
    # A one-shard oracle holds the same series in the same order as the
    # index: same bytes.
    assert snapshot(_populated(sharded_oracle.ShardedTsdb(1))) == snapshot(
        _populated(Tsdb()))


# ---------------------------------------------------------------------------
# Batched ingest through a partitioned log
# ---------------------------------------------------------------------------

def _batch(entries):
    return [
        (Labels.of("batched_metric", idx=str(idx), job="batch"),
         time_ns, value)
        for idx, time_ns, value in entries
    ]


@pytest.mark.parametrize("factory", [Tsdb, lambda: partitioned(4)])
def test_append_batch_equals_per_sample_appends(factory):
    batched, serial = factory(), factory()
    for cycle in range(1, 30):
        entries = _batch(
            (idx, cycle * seconds(5), float(cycle * idx)) for idx in range(6)
        )
        assert batched.append_batch(entries) == []
        for labels, time_ns, value in entries:
            serial.append(labels, time_ns, value)
    assert batched.select([], 0, seconds(200)) == serial.select(
        [], 0, seconds(200)
    )
    assert batched.sample_count() == serial.sample_count()
    assert batched.total_appends == serial.total_appends


def test_append_batch_reports_rejected_positions():
    store = partitioned(4)
    good = _batch([(0, seconds(10), 1.0), (1, seconds(10), 2.0)])
    assert store.append_batch(good) == []
    mixed = _batch([
        (0, seconds(5), 9.0),    # out of order for idx=0
        (2, seconds(15), 3.0),   # fine: new series
        (1, seconds(10), 8.0),   # duplicate timestamp, different value
        (0, seconds(20), 4.0),   # fine: advances idx=0
    ])
    assert store.append_batch(mixed) == [0, 2]
    # Rejected entries left no trace, in the store or its log; accepted
    # ones all landed.
    assert store.sample_count() == 4 == store._wal.records_total  # noqa: SLF001
    bad_name = [(Labels({"job": "batch"}), seconds(30), 1.0)]
    assert store.append_batch(bad_name) == [0]


def _reject_scalar(engine):
    with pytest.raises(TsdbError):
        engine.append(Labels.of("ghost"), 2**70, 1.0)


def _reject_batch(engine):
    assert engine.append_batch([(Labels.of("g2"), "x", 1.0)]) == [0]


def _reject_run(engine):
    with pytest.raises(TsdbError, match="differ in length"):
        engine.append_run(Labels.of("g3"), [1, 2], [1.0])
    assert engine.append_run(Labels.of("g4"), [1.5], [1.0]) == (0, 1)


def _index_state(engine):
    """The store, its postings, what they answer, and what its log took."""
    log = engine._wal  # noqa: SLF001
    return (
        [(labels, storage.sample_count)
         for labels, storage in engine.series_items()],
        {pair: set(members)
         for pair, members in engine._postings.items()},  # noqa: SLF001
        engine.metric_names(),
        engine.label_values("i"),
        engine.series_count(),
        None if log is None else log.records_total,
    )


@pytest.mark.parametrize("reject", [_reject_scalar, _reject_batch, _reject_run],
                         ids=["append", "append_batch", "append_run"])
@pytest.mark.parametrize("factory", [Tsdb, lambda: partitioned(4)],
                         ids=["monolith", "sharded4"])
def test_a_rejected_first_sample_leaves_no_series(factory, reject):
    engine = factory()
    engine.append_sample("kept", seconds(5), 1.0, i="0")
    before = _index_state(engine)
    reject(engine)
    assert _index_state(engine) == before
    assert restore(snapshot(engine)).series_count() == engine.series_count()
