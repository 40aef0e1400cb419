"""Equivalence and exactness proofs for the pluggable storage engine.

The sharded engine is only admissible if nothing above it can tell:

* any ingest sequence, any shard count — ``select``/``select_arrays``/
  ``label_values``/``latest`` and a full instant + range query panel are
  identical between :class:`ShardedTsdb` and the monolith (hypothesis
  properties);
* the same chaos seed produces the same TSDB digest whether the rig runs
  a monolith, ``build_storage_engine(1)``, or a 4-shard engine;
* downsampled range reads are *equal* to raw evaluation for the
  composable ``*_over_time`` functions on aligned windows (integer
  sample values so float addition is exact under any grouping), and the
  ``downsampled_reads_total`` counter proves the rollup path served
  them;
* archives round-trip: v3 restores the sharded layout, v2/v1 still
  restore into a plain monolith.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import TsdbError
from repro.pmag.archive import restore, snapshot
from repro.pmag.blocks import BlockPolicy
from repro.pmag.model import Labels, Matcher
from repro.pmag.query.engine import QueryEngine
from repro.pmag.storage import (
    ShardedTsdb,
    build_storage_engine,
    series_fingerprint,
    shard_for,
)
from repro.pmag.tsdb import StorageEngine, Tsdb
from repro.simkernel.clock import seconds

from tests.test_chaos import MIXED, build_rig, drive, tsdb_digest

# ---------------------------------------------------------------------------
# Routing is stable
# ---------------------------------------------------------------------------

def test_fingerprint_is_stable_across_processes():
    # The fingerprint is part of the on-disk contract: WAL directories
    # and v3 archives assume a series routes to the same shard forever.
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


def test_every_series_lives_on_exactly_one_shard():
    engine = ShardedTsdb(4)
    for i in range(40):
        engine.append_sample("metric", seconds(1), float(i), idx=str(i))
    counts = [engine.shard(k).series_count() for k in range(4)]
    assert sum(counts) == engine.series_count() == 40
    assert sum(1 for c in counts if c) > 1  # routing actually spreads
    for k in range(4):
        for labels, _storage in engine.shard(k).series_items():
            assert shard_for(labels, 4) == k


# ---------------------------------------------------------------------------
# Sharded vs monolith: byte-identical reads for any ingest
# ---------------------------------------------------------------------------

_series_strategy = st.dictionaries(
    st.tuples(st.sampled_from(("read", "write", "futex", "mmap")),
              st.integers(0, 3)),
    st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30),
    min_size=1, max_size=8,
)


def _ingest(engine: StorageEngine, values_by_series) -> None:
    for (name, idx), values in values_by_series.items():
        for step, value in enumerate(values):
            engine.append_sample(
                "ebpf_syscalls_total", (step + 1) * seconds(5), value,
                name=name, idx=str(idx), job="ebpf",
            )


_MATCHER_SETS = (
    [],
    [Matcher.eq("__name__", "ebpf_syscalls_total")],
    [Matcher.eq("name", "read")],
    [Matcher.eq("name", "nope")],
    [Matcher.regex("name", "r.*|f.*")],
    [Matcher.ne("idx", "0")],
    [Matcher.eq("__name__", "ebpf_syscalls_total"), Matcher.eq("idx", "1")],
)


@given(_series_strategy, st.integers(2, 8), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_sharded_reads_match_monolith(values_by_series, shards, start_s):
    mono, sharded = Tsdb(), ShardedTsdb(shards)
    _ingest(mono, values_by_series)
    _ingest(sharded, values_by_series)
    start_ns, end_ns = seconds(start_s), seconds(1000)
    for matchers in _MATCHER_SETS:
        assert (sharded.select(matchers, start_ns, end_ns)
                == mono.select(matchers, start_ns, end_ns))
        assert (sharded.select_arrays(matchers, start_ns, end_ns)
                == mono.select_arrays(matchers, start_ns, end_ns))
    for label in ("__name__", "name", "idx", "job", "absent"):
        assert sharded.label_values(label) == mono.label_values(label)
    assert sharded.latest("ebpf_syscalls_total") == mono.latest(
        "ebpf_syscalls_total"
    )
    assert sharded.latest("ebpf_syscalls_total", name="read") == mono.latest(
        "ebpf_syscalls_total", name="read"
    )
    assert sharded.series_count() == mono.series_count()
    assert sharded.sample_count() == mono.sample_count()
    assert sharded.total_appends == mono.total_appends
    assert sharded.metric_names() == mono.metric_names()


#: Instant + range panel: selectors, range functions, grouping,
#: arithmetic — everything the dashboards throw at the engine.
_QUERY_PANEL = (
    "ebpf_syscalls_total",
    'ebpf_syscalls_total{name="read"}',
    "rate(ebpf_syscalls_total[1m])",
    "avg_over_time(ebpf_syscalls_total[2m])",
    "max_over_time(ebpf_syscalls_total[1m])",
    "sum by (name) (rate(ebpf_syscalls_total[1m]))",
    "sum(ebpf_syscalls_total)",
    "rate(ebpf_syscalls_total[1m]) * 2 + 1",
)


@given(_series_strategy, st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_sharded_query_panel_matches_monolith(values_by_series, shards):
    mono, sharded = Tsdb(), ShardedTsdb(shards)
    _ingest(mono, values_by_series)
    _ingest(sharded, values_by_series)
    mono_engine, sharded_engine = QueryEngine(mono), QueryEngine(sharded)
    now_ns = seconds(150)
    for query in _QUERY_PANEL:
        assert (sharded_engine.instant(query, now_ns)
                == mono_engine.instant(query, now_ns)), query
        assert (sharded_engine.range_query(query, seconds(30), now_ns, seconds(15))
                == mono_engine.range_query(query, seconds(30), now_ns, seconds(15))), query


def test_out_of_order_rejection_survives_sharding():
    engine = ShardedTsdb(3)
    labels = Labels.of("m", idx="1")
    engine.append(labels, seconds(10), 1.0)
    with pytest.raises(TsdbError, match="out-of-order"):
        engine.append(labels, seconds(5), 2.0)
    assert engine.sample_count() == 1


def test_delete_and_retention_fan_out():
    mono = Tsdb(retention_ns=seconds(700))
    sharded = ShardedTsdb(4, retention_ns=seconds(700))
    for engine in (mono, sharded):
        for i in range(8):
            # 130 samples per series: the first chunk (120 samples,
            # CHUNK_SIZE) ages out whole under chunk-granular retention.
            for step in range(130):
                engine.append_sample(
                    "m", (step + 1) * seconds(5), float(i), idx=str(i)
                )
    assert sharded.delete_series([Matcher.eq("idx", "3")]) == 1
    assert mono.delete_series([Matcher.eq("idx", "3")]) == 1
    assert sharded.series_count() == mono.series_count() == 7
    # Cutoff 610s: each series' first chunk (120 samples, t=5..600s)
    # ages out whole; the 10-sample tail chunk stays.
    now_ns = seconds(1310)
    assert sharded.enforce_retention(now_ns) == mono.enforce_retention(now_ns) > 0
    assert sharded.sample_count() == mono.sample_count()
    assert sharded.select([], 0, now_ns) == mono.select([], 0, now_ns)


# ---------------------------------------------------------------------------
# Chaos parity: shard count is invisible to the pipeline
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
    assert isinstance(build_storage_engine(1), Tsdb)
    assert not isinstance(build_storage_engine(1), ShardedTsdb)


def test_chaos_digest_identical_across_shard_counts():
    def digest(shards):
        factory = lambda retention_ns=None: build_storage_engine(
            shards, retention_ns=retention_ns
        )
        rig = build_rig(31, tsdb_factory=factory, **MIXED)
        drive(rig, 120)
        return (rig.plan.journal_text(), tsdb_digest(rig),
                rig.manager.self_stats())

    one, four = digest(1), digest(4)
    assert four == one


# ---------------------------------------------------------------------------
# Downsampled reads are exact
# ---------------------------------------------------------------------------

#: 1h of samples every 10s, integer values — float addition over
#: integers is exact under any grouping, so rollup-composed sums equal
#: raw sums bit for bit.
_POLICY = BlockPolicy(
    block_range_ns=seconds(600),
    downsample_after_ns=seconds(600),
    resolution_ns=seconds(60),
)

_COMPOSABLE = (
    "avg_over_time", "min_over_time", "max_over_time",
    "sum_over_time", "count_over_time",
)


def _ingest_hour(engine: StorageEngine) -> None:
    for series in range(3):
        for step in range(360):
            engine.append_sample(
                "signal", (step + 1) * seconds(10),
                float((step * 7 + series * 13) % 1000), idx=str(series),
            )


@pytest.mark.parametrize("shards", [1, 4])
def test_downsampled_range_reads_equal_raw(shards):
    raw = Tsdb()
    compacted = build_storage_engine(shards, block_policy=_POLICY)
    _ingest_hour(raw)
    _ingest_hour(compacted)
    now_ns = seconds(3600)
    folded = compacted.compact(now_ns)
    # Horizon: 3600 - 600 aligned down to the block = 3000s; samples at
    # 10..2990s fold (299 per series), the block-aligned tail stays raw.
    assert folded == 3 * 299
    assert compacted.has_rollups()
    assert compacted.sample_count() == raw.sample_count() - folded
    assert compacted.total_appends == raw.total_appends

    raw_engine, engine = QueryEngine(raw), QueryEngine(compacted)
    # Aligned windows: start/end/step all multiples of the 60s
    # resolution, spanning folded history, the straddle, and the raw
    # head.
    for function in _COMPOSABLE:
        query = f"{function}(signal[10m])"
        expect = raw_engine.range_query(
            query, seconds(600), now_ns, seconds(300)
        )
        before = compacted.storage_stats()["downsampled_reads_total"]
        got = engine.range_query(query, seconds(600), now_ns, seconds(300))
        assert got == expect, function
        # The counter proves the rollup path actually served the steps.
        after = compacted.storage_stats()["downsampled_reads_total"]
        assert after > before, function


def test_fine_steps_and_misaligned_windows_fall_back_to_raw():
    compacted = Tsdb(block_policy=_POLICY)
    _ingest_hour(compacted)
    compacted.compact(seconds(3600))
    engine = QueryEngine(compacted)
    # Step below the resolution: the rollup path must not engage.
    engine.range_query(
        "avg_over_time(signal[10m])", seconds(3000), seconds(3600), seconds(30)
    )
    assert compacted.storage_stats()["downsampled_reads_total"] == 0
    # rate() needs every sample and never reads rollups.
    engine.range_query(
        "rate(signal[10m])", seconds(3000), seconds(3600), seconds(300)
    )
    assert compacted.storage_stats()["downsampled_reads_total"] == 0


def test_append_behind_the_rollup_is_rejected():
    engine = Tsdb(block_policy=_POLICY)
    labels = Labels.of("signal", idx="0")
    for step in range(360):
        engine.append(labels, (step + 1) * seconds(10), 1.0)
    engine.compact(seconds(3600))
    # Fully compact the series: drop the raw head entirely.
    times, _values = engine._series[labels].split_before(seconds(4000))  # noqa: SLF001
    assert times
    with pytest.raises(TsdbError, match="out-of-order"):
        engine.append(labels, seconds(100), 1.0)
    engine.append(labels, seconds(4000), 1.0)  # past the rollup: fine


def test_block_aligned_retention_drops_rollups_too():
    engine = Tsdb(retention_ns=seconds(1200), block_policy=_POLICY)
    _ingest_hour(engine)
    engine.compact(seconds(3600))
    dropped = engine.enforce_retention(seconds(3600))
    assert dropped > 0
    # Cutoff 3600-1200=2400s is block-aligned; nothing older survives in
    # either representation.
    assert not engine.select([], 0, seconds(2399))
    stats = engine.shard_stats()
    assert stats["rollup_samples"] > 0  # 2400..2990s stayed folded


# ---------------------------------------------------------------------------
# Aggregations over range functions: sharded == monolith on any data
# ---------------------------------------------------------------------------

def _ingest_fractions(engine: StorageEngine) -> None:
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


@pytest.mark.parametrize("compacted", [False, True], ids=["raw", "compacted"])
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_sharded_aggregations_are_bit_identical_to_the_monolith(
    shards, compacted
):
    policy = _POLICY if compacted else None
    mono = Tsdb(block_policy=policy)
    sharded = ShardedTsdb(shards, block_policy=policy)
    now_ns = seconds(1800)
    for db in (mono, sharded):
        _ingest_fractions(db)
        if compacted:
            assert db.compact(now_ns) > 0
    mono_engine, sharded_engine = QueryEngine(mono), QueryEngine(sharded)
    # A rollup-aligned grid and one that is not (on a compacted store:
    # windows served bucket ⊕ raw, and windows that fall back to raw).
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
# The deployment thread-through: compaction on the clock, telemetry out
# ---------------------------------------------------------------------------

def test_deployment_compacts_and_serves_storage_telemetry():
    from repro.simkernel.kernel import Kernel
    from repro.sgx.driver import SgxDriver
    from repro.teemon import TeemonConfig, deploy

    kernel = Kernel(seed=7, hostname="storage-host")
    kernel.load_module(SgxDriver())
    config = TeemonConfig(
        storage_shards=4,
        block_range_s=120.0,
        downsample_after_s=120.0,
        downsample_resolution_s=60.0,
    )
    deployment = deploy(kernel, config)
    kernel.clock.advance(seconds(600))
    session = deployment.session

    stats = session.storage_stats()
    assert stats["shards"] == 4
    assert len(stats["per_shard"]) == 4
    assert stats["compactions_total"] > 0
    assert stats["samples_compacted_total"] > 0
    assert stats["bytes_saved_total"] > 0
    assert sum(s["rollup_samples"] for s in stats["per_shard"]) == (
        stats["samples_compacted_total"]
    )
    assert sum(s["series"] for s in stats["per_shard"]) == (
        deployment.tsdb.series_count()
    )

    # A wide-step range query over folded history reads the rollups...
    before = session.storage_stats()["downsampled_reads_total"]
    session.query_range("avg_over_time(up[5m])", window_s=240, step_s=60)
    assert session.storage_stats()["downsampled_reads_total"] > before

    # ...and the whole family round-trips through the teemon_self
    # scrape as real queryable series.
    assert session.query("teemon_storage_shards")[0][1] == 4.0
    vector = session.query("teemon_storage_compactions_total")
    assert vector and vector[0][1] > 0
    per_shard = session.query("teemon_storage_samples")
    assert {labels.get("shard") for labels, _v in per_shard} == {
        "0", "1", "2", "3"
    }
    folded = session.query("teemon_storage_samples_compacted_total")
    assert folded and folded[0][1] > 0
    deployment.stop()


# ---------------------------------------------------------------------------
# Archives: v3 round-trips, v2/v1 stay readable
# ---------------------------------------------------------------------------

def _populated(engine: StorageEngine) -> StorageEngine:
    for i in range(12):
        for step in range(5):
            engine.append_sample(
                "m", (step + 1) * seconds(5), float(i + step), idx=str(i)
            )
    return engine


def test_v3_snapshot_roundtrips_the_sharded_layout():
    original = _populated(ShardedTsdb(4))
    restored = restore(snapshot(original))
    assert isinstance(restored, ShardedTsdb)
    assert restored.shard_count == 4
    assert restored.select([], 0, seconds(100)) == original.select(
        [], 0, seconds(100)
    )
    for k in range(4):
        assert (restored.shard(k).series_count()
                == original.shard(k).series_count())
    # Same layout, same bytes: a re-snapshot is byte-identical.
    assert snapshot(restored) == snapshot(original)


def test_monolith_snapshots_stay_version2():
    original = _populated(Tsdb())
    data = snapshot(original)
    import struct

    (version,) = struct.unpack_from("<H", data, 6)
    assert version == 2
    restored = restore(data)
    assert isinstance(restored, Tsdb)
    assert not isinstance(restored, ShardedTsdb)
    assert restored.select([], 0, seconds(100)) == original.select(
        [], 0, seconds(100)
    )


def test_v3_checksum_detects_bitflip():
    data = bytearray(snapshot(_populated(ShardedTsdb(2))))
    data[len(data) // 2] ^= 0x40
    with pytest.raises(TsdbError, match="checksum"):
        restore(bytes(data))


def test_one_shard_sharded_engine_still_archives():
    # A deliberately-built one-shard ShardedTsdb is not the monolith; it
    # writes v3 and restores to its own shape.
    original = _populated(ShardedTsdb(1))
    restored = restore(snapshot(original))
    assert isinstance(restored, ShardedTsdb)
    assert restored.shard_count == 1
    assert restored.select([], 0, seconds(100)) == original.select(
        [], 0, seconds(100)
    )


# ---------------------------------------------------------------------------
# Batched ingest: one routing pass per scrape cycle
# ---------------------------------------------------------------------------

def _batch(entries):
    return [
        (Labels.of("batched_metric", idx=str(idx), job="batch"),
         time_ns, value)
        for idx, time_ns, value in entries
    ]


@pytest.mark.parametrize("factory", [Tsdb, lambda: ShardedTsdb(4)])
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
    engine = ShardedTsdb(4)
    good = _batch([(0, seconds(10), 1.0), (1, seconds(10), 2.0)])
    assert engine.append_batch(good) == []
    mixed = _batch([
        (0, seconds(5), 9.0),    # out of order for idx=0
        (2, seconds(15), 3.0),   # fine: new series
        (1, seconds(10), 8.0),   # duplicate timestamp, different value
        (0, seconds(20), 4.0),   # fine: advances idx=0
    ])
    assert engine.append_batch(mixed) == [0, 2]
    # Rejected entries left no trace; accepted ones all landed.
    assert engine.sample_count() == 4
    bad_name = [(Labels({"job": "batch"}), seconds(30), 1.0)]
    assert engine.append_batch(bad_name) == [0]


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
    """The store, every shard's postings, and what they answer."""
    shards = ([engine] if isinstance(engine, Tsdb)
              else [engine.shard(k) for k in range(engine.shard_count)])
    return (
        [(labels, storage.sample_count)
         for labels, storage in engine.series_items()],
        [{pair: set(members) for pair, members in shard._postings.items()}  # noqa: SLF001
         for shard in shards],
        engine.metric_names(),
        engine.label_values("i"),
        engine.series_count(),
    )


@pytest.mark.parametrize("reject", [_reject_scalar, _reject_batch, _reject_run],
                         ids=["append", "append_batch", "append_run"])
@pytest.mark.parametrize("factory", [Tsdb, lambda: ShardedTsdb(4)],
                         ids=["monolith", "sharded4"])
def test_a_rejected_first_sample_leaves_no_series(factory, reject):
    engine = factory()
    engine.append_sample("kept", seconds(5), 1.0, i="0")
    before = _index_state(engine)
    reject(engine)
    assert _index_state(engine) == before
    assert restore(snapshot(engine)).series_count() == engine.series_count()
