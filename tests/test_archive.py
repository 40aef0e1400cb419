"""TSDB snapshot/restore tests, including a hypothesis roundtrip."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TsdbError
from repro.pmag.archive import MAGIC, VERSION, restore, snapshot, snapshot_window
from repro.pmag.chunks import CHUNK_SIZE
from repro.pmag.model import Matcher
from repro.pmag.storage import ShardedTsdb, series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import WalWriter, recover
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from tests.codec_oracle import (
    SERIES_POOL,
    reference_archive_body,
    reference_sharded_body,
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
        out[labels] = [(s.time_ns, s.value) for s in storage.window(0, 10**18)]
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


def test_snapshot_window_trims():
    tsdb = _populated_tsdb()
    start, end = 10 * seconds(5), 20 * seconds(5)
    restored = restore(snapshot_window(tsdb, start, end))
    for _, samples in _dump(restored).items():
        assert all(start <= t <= end for t, _ in samples)
    assert restored.sample_count() == 3 * 11  # 3 series x 11 scrapes


def test_snapshot_window_validation():
    with pytest.raises(TsdbError):
        snapshot_window(Tsdb(), 100, 50)


def test_restore_rejects_garbage():
    with pytest.raises(TsdbError, match="magic"):
        restore(b"NOTASNAPSHOT")
    # A truncated v2 snapshot fails its whole-file checksum up front.
    with pytest.raises(TsdbError, match="checksum"):
        restore(snapshot(_populated_tsdb())[:20])
    # Wrong version.
    data = bytearray(snapshot(Tsdb()))
    data[6] = 99
    with pytest.raises(TsdbError, match="version"):
        restore(bytes(data))


def test_restore_rejects_trailing_garbage():
    data = snapshot(_populated_tsdb())
    # Appending bytes breaks the v2 checksum...
    with pytest.raises(TsdbError, match="checksum"):
        restore(data + b"\x00garbage")
    # ...and even a v1 snapshot (no checksum) rejects bytes past the
    # last series.
    v1 = _as_v1(data)
    assert restore(v1).sample_count() == _populated_tsdb().sample_count()
    with pytest.raises(TsdbError, match="trailing garbage"):
        restore(v1 + b"\x00garbage")


def test_every_truncation_of_an_unchecksummed_snapshot_is_a_typed_error():
    # Version 1 has no CRC to fail up front: the body walk itself must
    # turn every cut — mid-count, mid-label (mid-character), mid-chunk —
    # into a TsdbError, never an uncaught struct or unicode error.
    tsdb = Tsdb()
    for k in range(130):
        tsdb.append_sample("m", (k + 1) * seconds(5), float(k), zone="日本")
        tsdb.append_sample("n", (k + 1) * seconds(5), float(k))
    v1 = _as_v1(snapshot(tsdb))
    assert _dump(restore(v1)) == _dump(tsdb)
    for cut in range(len(v1)):
        with pytest.raises(TsdbError):
            restore(v1[:cut])


def test_v2_checksum_detects_bitflip():
    data = bytearray(snapshot(_populated_tsdb()))
    data[len(data) // 2] ^= 0x10
    with pytest.raises(TsdbError, match="checksum"):
        restore(bytes(data))


def _as_v1(v2_snapshot: bytes) -> bytes:
    """Rewrite a v2 snapshot as the version-1 layout (no crc field)."""
    assert v2_snapshot[:6] == MAGIC
    return MAGIC + struct.pack("<H", 1) + v2_snapshot[12:]


def test_restore_reads_version1_snapshots():
    original = _populated_tsdb()
    restored = restore(_as_v1(snapshot(original)))
    assert _dump(restored) == _dump(original)


def test_snapshot_is_version2():
    data = snapshot(Tsdb())
    assert data[:6] == MAGIC
    (version,) = struct.unpack_from("<H", data, 6)
    assert version == VERSION == 2


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


@given(_archived_series)
@settings(max_examples=60, deadline=None)
def test_v2_snapshot_bytes_match_the_list_based_reference(specs):
    series = _series_with_stamps(specs)
    tsdb = Tsdb()
    _ingest(tsdb, series)
    expected = reference_snapshot(2, reference_archive_body(series))
    assert snapshot(tsdb) == expected
    assert snapshot(restore(expected)) == expected


@given(_archived_series, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_v3_snapshot_bytes_match_the_list_based_reference(specs, shards):
    series = _series_with_stamps(specs)
    engine = ShardedTsdb(shards)
    _ingest(engine, series)
    bodies = [
        reference_archive_body([
            entry for entry in series
            if series_fingerprint(entry[0]) % shards == index
        ])
        for index in range(shards)
    ]
    expected = reference_snapshot(3, reference_sharded_body(bodies))
    assert snapshot(engine) == expected
    assert snapshot(restore(expected)) == expected


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
    expected = reference_snapshot(2, reference_archive_body(series))
    assert bytes(disk.read(name)) == expected
    recovered, _report = recover(disk)
    assert snapshot(recovered) == expected
