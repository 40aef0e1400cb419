"""TSDB snapshot/restore tests, including a hypothesis roundtrip and a
fuzz test of restore against damaged snapshots."""

import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TsdbError
from repro.pmag.archive import MAGIC, VERSION, restore, snapshot
from repro.pmag.chunks import CHUNK_SIZE
from repro.pmag.model import Labels, Matcher
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.faults import FaultPlan
from repro.pmag.wal import PartitionMap, WalWriter, open_log, recover
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.rng import DeterministicRng
from tests.codec_oracle import (
    SERIES_POOL,
    reference_archive_body,
    reference_deflated_snapshot,
    reference_snapshot,
)


def _populated_tsdb():
    tsdb = Tsdb()
    for step in range(50):
        t = (step + 1) * seconds(5)
        tsdb.append_sample("syscalls_total", t, step * 100.0, name="read")
        tsdb.append_sample("syscalls_total", t, step * 700.0, name="futex")
        tsdb.append_sample("sgx_epc_free_pages", t, 24064.0 - step)
    return tsdb


def _dump(tsdb):
    out = {}
    for labels, storage in tsdb._series.items():  # noqa: SLF001
        out[labels] = [(s.time_ns, s.value)
                       for s in storage.window(-2**63, 2**63 - 1)]
    return out


def test_snapshot_restore_roundtrip():
    original = _populated_tsdb()
    restored = restore(snapshot(original))
    assert _dump(restored) == _dump(original)
    assert restored.series_count() == original.series_count()
    assert restored.sample_count() == original.sample_count()


def test_restored_database_is_queryable():
    from repro.pmag.query import QueryEngine

    restored = restore(snapshot(_populated_tsdb()))
    engine = QueryEngine(restored)
    now = 50 * seconds(5)
    rate = engine.instant('rate(syscalls_total{name="read"}[1m])', now)
    assert rate and rate[0][1] == pytest.approx(20.0)


def test_restore_rejects_garbage():
    with pytest.raises(TsdbError, match="magic"):
        restore(b"NOTASNAPSHOT")
    # A truncated snapshot fails its whole-file checksum up front.
    with pytest.raises(TsdbError, match="checksum"):
        restore(snapshot(_populated_tsdb())[:20])
    # Wrong version.
    data = bytearray(snapshot(Tsdb()))
    data[6] = 99
    with pytest.raises(TsdbError, match="version"):
        restore(bytes(data))


def _inflated(data) -> bytes:
    """A snapshot's body, inflated."""
    return zlib.decompress(bytes(data[12:]))


def _restamped(data) -> bytes:
    """``data`` with its checksum recomputed, so only the body walk can
    reject it (a header too short to hold one is left as it is)."""
    data = bytearray(data)
    if len(data) >= 12:
        struct.pack_into("<I", data, 8, zlib.crc32(data[12:]))
    return bytes(data)


def test_restore_rejects_trailing_garbage():
    data = snapshot(_populated_tsdb())
    # Appending bytes breaks the checksum...
    with pytest.raises(TsdbError, match="checksum"):
        restore(data + b"\x00garbage")
    # ...and with the checksum stamped over them, the walk still rejects
    # bytes past the last series.
    with pytest.raises(TsdbError, match="trailing garbage"):
        restore(_restamped(data + b"\x00garbage"))


def test_every_truncation_of_a_restamped_snapshot_is_a_typed_error():
    # With a checksum that verifies, the body walk itself must turn
    # every cut — mid-count, mid-label (mid-character), mid-chunk — into
    # a TsdbError, never an uncaught struct or unicode error.
    tsdb = Tsdb()
    for k in range(130):
        tsdb.append_sample("m", (k + 1) * seconds(5), float(k), zone="日本")
        tsdb.append_sample("n", (k + 1) * seconds(5), float(k))
    data = snapshot(tsdb)
    for cut in range(len(data)):
        with pytest.raises(TsdbError):
            restore(_restamped(data[:cut]))


@pytest.mark.parametrize("version", [0, 1, 2, 0xFFFF])
def test_restore_accepts_only_version3(version):
    data = bytearray(snapshot(_populated_tsdb()))
    struct.pack_into("<H", data, 6, version)
    with pytest.raises(TsdbError, match="unsupported snapshot version"):
        restore(_restamped(data))


def _non_utf8_snapshot(tsdb):
    """A snapshot of ``tsdb`` with one byte of its ``zone="QQQ"`` label
    value made 0xff, deflate stream and checksum all consistent."""
    body = bytearray(_inflated(snapshot(tsdb)))
    body[body.index(b"QQQ")] = 0xFF
    return reference_deflated_snapshot(bytes(body))


def test_label_text_that_is_not_utf8_is_a_typed_error():
    tsdb = _populated_tsdb()
    tsdb.append_sample("m", seconds(5), 1.0, zone="QQQ")
    with pytest.raises(TsdbError, match="UTF-8"):
        restore(_non_utf8_snapshot(tsdb))


def _recover_past_a_bad_newer_checkpoint(damage):
    """Checkpoint twice, log one more sample, replace the newer
    checkpoint with ``damage(tsdb, its bytes)`` and recover."""
    disk = SimDisk()
    tsdb = Tsdb()
    writer = WalWriter(disk)
    tsdb.attach_wal(writer)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    tsdb.append_sample("m", seconds(5), 1.0, zone="QQQ")
    older = writer.checkpoint(tsdb)
    kept = bytes(disk.read(older))
    tsdb.append_sample("m", seconds(10), 2.0, zone="QQQ")
    newer = writer.checkpoint(tsdb)
    tsdb.append_sample("m", seconds(15), 3.0, zone="QQQ")
    writer.flush()
    disk.write(older, kept)
    disk.write(newer, damage(tsdb, disk.read(newer)))
    for name in (older, newer):
        disk.sync(name)
    recovered, report = recover(disk, plan=plan)
    assert report.checkpoints_quarantined == 1
    assert report.checkpoint_used == older
    assert f"{newer} wal-checkpoint-quarantined" in plan.journal_text()
    # The sample only the quarantined checkpoint held is gone; the one
    # logged after it replays.
    assert [(s.time_ns, s.value) for s in recovered.select(
        [Matcher.eq("__name__", "m")], 0, seconds(20))[0].samples] == [
        (seconds(5), 1.0), (seconds(15), 3.0)]


def test_recovery_quarantines_a_checkpoint_with_non_utf8_labels():
    # The checksum verifies, the label text does not decode: recovery
    # quarantines the checkpoint and falls back to the one before it.
    _recover_past_a_bad_newer_checkpoint(
        lambda tsdb, _data: _non_utf8_snapshot(tsdb))


def test_recovery_quarantines_a_version2_checkpoint():
    # The layout version 3 replaced, checksum and body intact: restore
    # refuses it, and recovery falls back to the version-3 one before it.
    def as_version2(_tsdb, data):
        old = reference_snapshot(2, _inflated(data))
        with pytest.raises(TsdbError, match="unsupported snapshot version: 2"):
            restore(old)
        return old

    _recover_past_a_bad_newer_checkpoint(as_version2)


def test_v2_checksum_detects_bitflip():
    data = bytearray(snapshot(_populated_tsdb()))
    data[len(data) // 2] ^= 0x10
    with pytest.raises(TsdbError, match="checksum"):
        restore(bytes(data))


def test_snapshot_is_version3():
    data = snapshot(Tsdb())
    assert data[:6] == MAGIC
    (version,) = struct.unpack_from("<H", data, 6)
    assert version == VERSION == 3


def test_restore_preserves_chunk_boundaries():
    # 250 samples > 2 full chunks; restore must keep the same chunk
    # layout, not re-chunk from sample zero — which makes snapshot an
    # idempotent byte-for-byte round trip.
    tsdb = Tsdb()
    for step in range(250):
        tsdb.append_sample("m", (step + 1) * 1000, float(step))
    restored = restore(snapshot(tsdb))
    original_chunks = next(iter(tsdb._series.values()))  # noqa: SLF001
    restored_chunks = next(iter(restored._series.values()))  # noqa: SLF001
    assert restored_chunks.chunk_count == original_chunks.chunk_count
    assert snapshot(restored) == snapshot(tsdb)


def test_empty_tsdb_roundtrip():
    restored = restore(snapshot(Tsdb()))
    assert restored.series_count() == 0


@given(st.dictionaries(
    st.tuples(st.sampled_from(("a", "b")), st.text(max_size=6)),
    st.lists(st.tuples(st.integers(1, 10**6),
                       st.floats(-1e9, 1e9, allow_nan=False)),
             min_size=1, max_size=30),
    min_size=1, max_size=5,
))
@settings(max_examples=40)
def test_snapshot_roundtrip_property(series_specs):
    tsdb = Tsdb()
    for (group, tag), deltas in series_specs.items():
        t = 0
        for delta, value in deltas:
            t += delta
            tsdb.append_sample("m", t, value, group=group, tag=tag)
    restored = restore(snapshot(tsdb))
    assert _dump(restored) == _dump(tsdb)


# ---------------------------------------------------------------------------
# Typed columns write the bytes the list-based store wrote
# ---------------------------------------------------------------------------
_archived_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.integers(-2**40, 2**40),
    st.booleans(),
)
_archived_series = st.lists(
    st.tuples(
        st.sampled_from(SERIES_POOL[:6]),
        st.lists(st.tuples(st.integers(1, 10**9), _archived_values),
                 min_size=1, max_size=2 * CHUNK_SIZE + 3),
    ),
    min_size=1, max_size=5, unique_by=lambda entry: entry[0],
)


def _series_with_stamps(specs):
    """``[(labels, [(t, v)])]`` with each series' deltas made stamps."""
    out = []
    for labels, deltas in specs:
        samples, t = [], 0
        for delta, value in deltas:
            t += delta
            samples.append((t, value))
        out.append((labels, samples))
    return out


def _ingest(engine, series):
    for labels, samples in series:
        for time_ns, value in samples:
            engine.append(labels, time_ns, value)


def _assert_snapshot_of(data, body):
    """``data`` is a version-3 snapshot whose body inflates to ``body``
    byte for byte, and restoring it snapshots back to ``data``; a
    reference-deflated file of ``body`` restores to the same store."""
    assert bytes(data[:12]) == MAGIC + struct.pack(
        "<HI", VERSION, zlib.crc32(data[12:]))
    assert _inflated(data) == body
    restored = restore(data)
    assert type(restored) is Tsdb
    assert snapshot(restored) == data
    assert snapshot(restore(reference_deflated_snapshot(body))) == data


@given(_archived_series)
@settings(max_examples=60, deadline=None)
def test_snapshot_body_bytes_match_the_list_based_reference(specs):
    series = _series_with_stamps(specs)
    tsdb = Tsdb()
    _ingest(tsdb, series)
    _assert_snapshot_of(snapshot(tsdb), reference_archive_body(series))


@given(_archived_series, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_sharded_snapshot_bytes_match_the_list_based_reference(specs, shards):
    # One layout everywhere: a whole store snapshots in ingest order,
    # and each WAL partition's checkpoint holds the series routed to it,
    # in the same order.
    series = _series_with_stamps(specs)
    disk = SimDisk()
    tsdb = Tsdb()
    log = open_log(disk, "wal", PartitionMap(shards), 0)
    tsdb.attach_wal(log)
    _ingest(tsdb, series)
    _assert_snapshot_of(snapshot(tsdb), reference_archive_body(series))
    names = log.checkpoint(tsdb)
    for index, name in enumerate([names] if shards == 1 else names):
        _assert_snapshot_of(bytes(disk.read(name)), reference_archive_body([
            entry for entry in series
            if series_fingerprint(entry[0]) % shards == index
        ]))


@given(_archived_series)
@settings(max_examples=30, deadline=None)
def test_checkpoint_file_bytes_match_the_list_based_reference(specs):
    series = _series_with_stamps(specs)
    disk = SimDisk()
    tsdb = Tsdb()
    writer = WalWriter(disk)
    tsdb.attach_wal(writer)
    _ingest(tsdb, series)
    name = writer.checkpoint(tsdb)
    data = bytes(disk.read(name))
    _assert_snapshot_of(data, reference_archive_body(series))
    recovered, _report = recover(disk)
    assert snapshot(recovered) == data


def _checkpoint_peak(values):
    """Checkpoint a 500-series store of 120 samples each, filled by
    ``values(series, k)``; returns (peak bytes allocated inside
    ``WalWriter.checkpoint``, raw body bytes)."""
    tsdb = Tsdb()
    times = [(k + 1) * seconds(5) for k in range(CHUNK_SIZE)]
    for index in range(500):
        tsdb.append_run(
            Labels.of("ckpt_total", job="ckpt", instance=f"host{index}"),
            times, [values(index, k) for k in range(CHUNK_SIZE)])
    assert tsdb.sample_count() == 60_000
    disk = SimDisk()
    writer = WalWriter(disk)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        name = writer.checkpoint(tsdb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, len(_inflated(disk.read(name)))


def test_a_checkpoint_allocates_less_than_the_raw_body():
    # Series are deflated one at a time, so the raw body never exists
    # whole: the peak is the deflate state plus the deflated output.
    # Building the raw body and then joining it peaks at over 2.5x.
    rng = DeterministicRng(3)
    for values in (lambda index, k: float(index * 1000 + 7 * k),
                   lambda index, k: rng.random()):
        peak, raw = _checkpoint_peak(values)
        assert peak < raw, (peak, raw)


# ---------------------------------------------------------------------------
# Every stamp the store can hold encodes
# ---------------------------------------------------------------------------
def test_a_store_spanning_the_int64_range_snapshots_restores_and_checkpoints():
    # Consecutive stamps 2**63 and 2**64 - 1 apart: the chunk deltas do
    # not fit a signed int64, and must still encode.
    disk = SimDisk()
    tsdb = Tsdb()
    writer = WalWriter(disk)
    tsdb.attach_wal(writer)
    tsdb.append_sample("m", -2**62, 0.0)
    tsdb.append_sample("m", 2**62, 1.0)
    tsdb.append_sample("n", -2**63, 2.0)
    tsdb.append_sample("n", 2**63 - 1, 3.0)
    data = snapshot(tsdb)
    assert sum(map(len, _dump(tsdb).values())) == 4
    assert _dump(restore(data)) == _dump(tsdb)
    name = writer.checkpoint(tsdb)
    assert bytes(disk.read(name)) == data
    recovered, report = recover(disk)
    assert report.checkpoint_used == name
    assert _dump(recovered) == _dump(tsdb)


# ---------------------------------------------------------------------------
# Hostile bytes: restore raises TsdbError or nothing
# ---------------------------------------------------------------------------
def _fuzz_bases():
    """Snapshots to damage: one mostly label text, one mostly chunks."""
    labelled = Tsdb()
    for k, zone in enumerate(("日本", "", "zürich")):
        labelled.append_sample("m", seconds(5), float(k), zone=zone, job="a")
    chunked = Tsdb()
    for k in range(130):  # two chunks
        chunked.append_sample("m", (k + 1) * seconds(5), float(k), zone="é")
    return [bytes(snapshot(tsdb)) for tsdb in (labelled, chunked)]


_FUZZ_BASES = _fuzz_bases()


@st.composite
def _damaged_snapshots(draw):
    base = draw(st.sampled_from(_FUZZ_BASES))
    how = draw(st.sampled_from(("truncate", "extend", "mutate")))
    if how == "truncate":
        return base[:draw(st.integers(0, len(base) - 1))]
    if how == "extend":
        return base + draw(st.binary(min_size=1, max_size=64))
    data = bytearray(base)
    for index, mask in draw(st.lists(
            st.tuples(st.integers(0, len(base) - 1), st.integers(1, 255)),
            min_size=1, max_size=8)):
        data[index] ^= mask
    return bytes(data)


@given(_damaged_snapshots())
@settings(deadline=None)
def test_any_damaged_snapshot_restores_or_raises_tsdb_error(damaged):
    # Truncated, extended or mutated, then stamped with a checksum that
    # verifies: restore either succeeds — into a store whose own
    # snapshot round-trips — or raises TsdbError, never anything else.
    try:
        restored = restore(_restamped(damaged))
    except TsdbError:
        return
    again = snapshot(restored)
    assert snapshot(restore(again)) == again
