"""Equivalence and exactness proofs for the pluggable storage engine.

The sharded engine is only admissible if nothing above it can tell:

* any ingest sequence, any shard count — ``select``/``select_arrays``/
  ``label_values``/``latest`` and a full instant + range query panel are
  identical between :class:`ShardedTsdb` and the monolith (hypothesis
  properties);
* the same chaos seed produces the same TSDB digest whether the rig runs
  a monolith, ``build_storage_engine(1)``, or a 4-shard engine;
* archives round-trip: every engine snapshots into the one layout, and
  restore always builds a plain monolith with the same series.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import TsdbError
from repro.pmag.archive import restore, snapshot
from repro.pmag.model import Labels, Matcher
from repro.pmag.query.engine import QueryEngine
from repro.pmag.remote_write import decode_frame_blocks, encode_frame
from repro.pmag.storage import (
    ShardedTsdb,
    StorageEngine,
    build_storage_engine,
    series_fingerprint,
    shard_for,
)
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds

from tests.test_chaos import MIXED, build_rig, drive, tsdb_digest

# ---------------------------------------------------------------------------
# Routing is stable
# ---------------------------------------------------------------------------

def test_fingerprint_is_stable_across_processes():
    # The fingerprint is part of the on-disk contract: per-shard WAL
    # directories assume a series routes to the same shard forever.
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
    # A fingerprint picks a shard and guards a frame block's integrity;
    # series are keyed by their labels, so a collision only shares a shard.
    first, second = pair
    assert first != second
    assert series_fingerprint(first) == series_fingerprint(second)
    entries = [(first, seconds(1), 1.0), (second, seconds(1), 2.0),
               (first, seconds(2), 3.0), (second, seconds(2), 4.0)]
    expected = sorted([
        (first, [seconds(1), seconds(2)], [1.0, 3.0]),
        (second, [seconds(1), seconds(2)], [2.0, 4.0]),
    ], key=lambda entry: entry[0].items())
    engine = ShardedTsdb(4)
    assert engine.append_batch(entries) == []
    assert engine.shard(shard_for(first, 4)).series_count() == 2
    assert _listed(engine.select_arrays([], 0, seconds(3))) == expected
    interned = {}
    for seq in (1, 2):  # the second decode meets the interned headers
        _sender, _epoch, _seq, blocks = decode_frame_blocks(
            encode_frame("leaf", 1, seq, entries), interned)
        assert [(labels, samples) for _fp, labels, samples in blocks] == [
            (first, [(seconds(1), 1.0), (seconds(2), 3.0)]),
            (second, [(seconds(1), 2.0), (seconds(2), 4.0)]),
        ]
        receiver = ShardedTsdb(4)
        assert receiver.append_fingerprinted(blocks) == 0
        assert _listed(receiver.select_arrays([], 0, seconds(3))) == expected


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
# One interface on two classes
# ---------------------------------------------------------------------------

#: Public names only one engine has: the sharded engine's shard plumbing,
#: and what each of its shards hands up to it.
_SHARD_PLUMBING = {
    "shard", "adopt_shard", "attach_wals", "latest_keyed", "shard_stats",
}

#: The entry points written once, on the monolith, in terms of the others.
_SHARED = (
    "append", "append_sample", "append_fingerprinted", "select",
    "select_metric", "metric_names", "select_rollups", "compact",
)


def _public(engine):
    return {name for name in dir(engine) if not name.startswith("_")}


def test_both_engines_carry_the_whole_interface():
    assert _public(Tsdb()) ^ _public(ShardedTsdb(2)) == _SHARD_PLUMBING


@pytest.mark.parametrize("name", _SHARED)
def test_sharded_engine_binds_the_monolith_function(name):
    assert vars(ShardedTsdb)[name] is vars(Tsdb)[name]


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


_COMPOSABLE = (
    "avg_over_time", "min_over_time", "max_over_time",
    "sum_over_time", "count_over_time",
)


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


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_sharded_aggregations_are_bit_identical_to_the_monolith(shards):
    mono = Tsdb()
    sharded = ShardedTsdb(shards)
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

    kernel = Kernel(seed=7, hostname="storage-host")
    kernel.load_module(SgxDriver())
    deployment = deploy(kernel, TeemonConfig(storage_shards=4))
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

    # The family round-trips through the teemon_self scrape as real
    # queryable series.
    assert session.query("teemon_storage_shards")[0][1] == 4.0
    per_shard = session.query("teemon_storage_samples")
    assert {labels.get("shard") for labels, _v in per_shard} == {
        "0", "1", "2", "3"
    }
    deployment.stop()


# ---------------------------------------------------------------------------
# Archives: one layout for every engine
# ---------------------------------------------------------------------------

def _populated(engine: StorageEngine) -> StorageEngine:
    for i in range(12):
        for step in range(5):
            engine.append_sample(
                "m", (step + 1) * seconds(5), float(i + step), idx=str(i)
            )
    return engine


def test_sharded_snapshot_restores_to_a_monolith():
    original = _populated(ShardedTsdb(4))
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
    # A deliberately-built one-shard ShardedTsdb is not the monolith, but
    # it holds the same series in the same order: same bytes.
    assert snapshot(_populated(ShardedTsdb(1))) == snapshot(_populated(Tsdb()))


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
