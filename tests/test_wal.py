"""Unit tests for the durability layer: SimDisk, the WAL, recovery.

Covers the medium's sync/crash semantics, the record codec, segment
lifecycle (rotation, flush accounting, sequence continuation), the
checkpoint write ordering, and every recovery classification — replay,
duplicate, torn tail, quarantined record, quarantined segment,
quarantined checkpoint — with *exact* loss accounting against the
disk's own crash report.  The storage/process injectors are checked for
the same seeded determinism the network injectors guarantee.
"""

import struct
import sys
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError, StorageError, WalError
from repro.faults import (
    CrashInjector,
    DiskBitFlipInjector,
    FaultPlan,
    TornWriteInjector,
)
from repro.pmag.chunks import CHUNK_SIZE
from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import (
    HEADER_SIZE,
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    WalWriter,
    checkpoint_name,
    decode_payload,
    encode_record,
    recover,
    segment_name,
)
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.rng import DeterministicRng
from tests.codec_oracle import (
    reference_encode_record,
    reference_record,
    wire_entries,
)


def _labels(i=0):
    return Labels.of("wal_test_metric", job="wal", instance=f"host{i}")


def _fill(writer, count, start=1, series=0):
    """Append ``count`` records for one series at 1ms spacing."""
    for k in range(count):
        writer.append(_labels(series), (start + k) * 1_000_000, float(k))


def _samples(tsdb):
    out = {}
    for labels, storage in tsdb._series.items():  # noqa: SLF001
        out[labels] = [(s.time_ns, s.value) for s in storage.window(0, 10**18)]
    return out


# ---------------------------------------------------------------------------
# SimDisk semantics
# ---------------------------------------------------------------------------
def test_disk_append_sync_read():
    disk = SimDisk()
    disk.append("f", b"hello")
    disk.append("f", b" world")
    assert disk.read("f") == b"hello world"
    assert disk.synced_size("f") == 0
    disk.sync("f")
    assert disk.synced_size("f") == 11


def test_disk_crash_truncates_to_synced_length():
    disk = SimDisk()
    disk.append("f", b"durable")
    disk.sync("f")
    disk.append("f", b"-volatile")
    report = disk.crash()
    assert disk.read("f") == b"durable"
    tail = report.tails["f"]
    assert (tail.offset, tail.data, tail.retained) == (7, b"-volatile", 0)
    assert tail.discarded == b"-volatile"
    assert report.bytes_discarded == 9
    assert report.files_affected == 1


def test_disk_crash_hook_retains_torn_prefix():
    disk = SimDisk()
    disk.add_crash_fault(lambda name, tail: 3)
    disk.append("f", b"abc")
    disk.sync("f")
    disk.append("f", b"defghi")
    report = disk.crash()
    # The torn prefix survives and is durable now (it is on the platter).
    assert disk.read("f") == b"abcdef"
    assert disk.synced_size("f") == 6
    assert report.tails["f"].discarded == b"ghi"


def test_disk_write_replaces_and_resets_durability():
    disk = SimDisk()
    disk.append("f", b"old")
    disk.sync("f")
    disk.write("f", b"replacement")
    assert disk.synced_size("f") == 0
    disk.crash()
    assert disk.read("f") == b""


def test_disk_unknown_file_operations_raise():
    disk = SimDisk()
    with pytest.raises(StorageError):
        disk.read("missing")
    with pytest.raises(StorageError):
        disk.sync("missing")
    with pytest.raises(StorageError):
        disk.delete("missing")
    with pytest.raises(StorageError):
        disk.append("f", "not bytes")


def test_disk_list_files_is_sorted_by_prefix():
    disk = SimDisk()
    for name in ("wal/b", "wal/a", "other/c"):
        disk.append(name, b"x")
    assert disk.list_files("wal/") == ["wal/a", "wal/b"]


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------
def test_record_roundtrip():
    labels = Labels.of("m", job="j", zone="eu", a="1")
    record = encode_record(labels, 12345, -2.5)
    (length,) = struct.unpack_from("<I", record, 0)
    assert length == len(record) - 8
    decoded_labels, time_ns, value = decode_payload(record[8:])
    assert decoded_labels == labels
    assert (time_ns, value) == (12345, -2.5)


def test_cached_encoder_is_byte_identical():
    cache = {}
    entries = [
        (Labels.of("m", job="j", zone="eu"), 10, 1.5),
        (Labels.of("m", job="j", zone="eu"), 20, 2.5),  # cache hit
        (Labels.of("n", job="j"), 10, -1.0),
        (Labels.of("m", job="j", zone="eu"), 30, 0.0),  # hit again
    ]
    for labels, time_ns, value in entries:
        assert encode_record(labels, time_ns, value, cache) == \
            reference_encode_record(labels, time_ns, value)
    assert len(cache) == 2  # one prefix per distinct label set
    # A label set that fails a check raises on every call and is never
    # memoised — whichever check it fails.
    too_long = Labels.of("m", k="v" * 70_000)
    too_large = Labels.of("m", **{f"k{i}": "v" * 60_000 for i in range(18)})
    for labels, message in ((too_long, "too long"), (too_large, "too large")):
        for _ in range(2):
            with pytest.raises(WalError, match=message):
                encode_record(labels, 1, 1.0, cache)
        assert labels not in cache


records = st.lists(wire_entries, max_size=40)


@given(records)
def test_any_interleaving_through_one_memo_matches_reference(entries):
    memo, interned = {}, {}
    for labels, time_ns, value in entries:
        record = encode_record(labels, time_ns, value, memo)
        assert record == reference_encode_record(labels, time_ns, value)
        # ...and replay interning parses it exactly as a cold decode does.
        assert decode_payload(record[8:], interned) == \
            decode_payload(record[8:]) == (labels, time_ns, value)
    series = {labels for labels, _t, _v in entries}
    assert set(memo) == series
    assert sorted(interned.values(), key=Labels.items) == \
        sorted(series, key=Labels.items)


@given(
    entries=records,
    cuts=st.lists(st.integers(0, 40), max_size=6),
    flush_every=st.integers(0, 5),
    segment_max=st.integers(1, 7),
)
def test_segments_equal_concatenated_reference_records(
        entries, cuts, flush_every, segment_max):
    # Whatever mix of append / append_many calls delivers the records,
    # and wherever count-based flushes and rotations fall between them,
    # the medium holds exactly the reference records, in order.
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=flush_every,
                       segment_max_records=segment_max)
    bounds = sorted(set(cuts) | {0, len(entries)})
    for batch, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if batch % 2:
            writer.append_many(entries[lo:hi])
        else:
            for labels, time_ns, value in entries[lo:hi]:
                writer.append(labels, time_ns, value)
    expected = [reference_encode_record(*entry) for entry in entries]
    names = disk.list_files("wal/segment-")
    for index, name in enumerate(names):
        data = disk.read(name)
        assert data[:HEADER_SIZE] == SEGMENT_MAGIC + struct.pack(
            "<HI", SEGMENT_VERSION, index + 1)
        chunk = expected[index * segment_max:(index + 1) * segment_max]
        assert data[HEADER_SIZE:] == b"".join(chunk)
    assert len(names) == len(entries) // segment_max + 1
    # The durable prefix ends exactly at the last flush boundary.
    durable = b"".join(
        disk.read(name)[HEADER_SIZE:disk.synced_size(name)] for name in names)
    flushed = writer.records_total - writer.unflushed_records
    assert durable == b"".join(expected[:flushed])


def test_decode_rejects_malformed_payloads():
    payload = encode_record(_labels(), 1, 1.0)[8:]
    with pytest.raises(WalError, match="kind"):
        decode_payload(b"\x63" + payload[1:])
    with pytest.raises(WalError):
        decode_payload(payload[:-3])  # truncated trailer
    with pytest.raises(WalError, match="trailing"):
        decode_payload(payload + b"\x00")


def test_decode_rejects_non_canonical_label_blocks():
    # Duplicate keys would collapse (label count != labels stored) and
    # unsorted ones would give one series two encodings.
    pairs = _labels().items()
    for damaged in (pairs[::-1], pairs + pairs[-1:], pairs[:1] + pairs[:1]):
        payload = reference_record(damaged, 1, 1.0)[8:]
        for interned in (None, {}):
            with pytest.raises(WalError, match="ascending"):
                decode_payload(payload, interned)
            assert not interned


def test_encode_rejects_oversized_components():
    with pytest.raises(WalError, match="too long"):
        encode_record(Labels.of("m", k="v" * 70_000), 1, 1.0)


# ---------------------------------------------------------------------------
# WalWriter lifecycle
# ---------------------------------------------------------------------------
def test_writer_opens_headered_segment():
    disk = SimDisk()
    writer = WalWriter(disk)
    name = writer.current_segment
    assert name == segment_name("wal", 1)
    data = disk.read(name)
    assert data[:len(SEGMENT_MAGIC)] == SEGMENT_MAGIC
    version, seq = struct.unpack_from("<HI", data, len(SEGMENT_MAGIC))
    assert (version, seq) == (SEGMENT_VERSION, 1)
    assert len(data) == HEADER_SIZE


def test_flush_makes_records_durable_and_noops_when_clean():
    disk = SimDisk()
    writer = WalWriter(disk)
    _fill(writer, 4)
    assert writer.unflushed_records == 4
    assert disk.synced_size(writer.current_segment) == 0
    writer.flush()
    assert writer.unflushed_records == 0
    assert disk.synced_size(writer.current_segment) == disk.size(writer.current_segment)
    flushes = writer.flushes_total
    writer.flush()  # nothing new: must not count another fsync
    assert writer.flushes_total == flushes


def test_count_based_flush_bounds_the_unflushed_window():
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=5)
    _fill(writer, 12)
    assert writer.flushes_total == 2
    assert writer.unflushed_records == 2


def test_rotation_syncs_old_segment_and_opens_next():
    disk = SimDisk()
    writer = WalWriter(disk, segment_max_records=10)
    first = writer.current_segment
    _fill(writer, 25)
    assert writer.segments_total == 3
    assert writer.current_segment == segment_name("wal", 3)
    # Rotation force-synced the filled segments: nothing volatile there.
    assert disk.synced_size(first) == disk.size(first)
    assert writer.records_total == 25


def test_sequence_continues_past_existing_files():
    disk = SimDisk()
    first = WalWriter(disk)
    _fill(first, 3)
    first.flush()
    second = WalWriter(disk)  # a writer built after recovery
    assert second.segment_seq == 2
    assert second.current_segment == segment_name("wal", 2)


def test_writer_validation():
    with pytest.raises(WalError):
        WalWriter(SimDisk(), segment_max_records=0)
    with pytest.raises(WalError):
        WalWriter(SimDisk(), flush_every_records=-1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
def _tsdb_with_wal(disk, **writer_kwargs):
    tsdb = Tsdb()
    writer = WalWriter(disk, **writer_kwargs)
    tsdb.attach_wal(writer)
    return tsdb, writer


def test_checkpoint_truncates_subsumed_segments():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk, segment_max_records=10)
    for k in range(25):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    name = writer.checkpoint(tsdb)
    assert name == checkpoint_name("wal", 4)
    assert disk.list_files("wal/checkpoint-") == [name]
    # Only the fresh post-checkpoint segment remains, and it is empty.
    assert disk.list_files("wal/segment-") == [segment_name("wal", 5)]
    assert disk.size(segment_name("wal", 5)) == HEADER_SIZE
    # A second checkpoint replaces the first.
    writer.checkpoint(tsdb)
    assert disk.list_files("wal/checkpoint-") == [checkpoint_name("wal", 6)]


def test_checkpoint_is_durable_before_old_state_is_deleted():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(8):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    name = writer.checkpoint(tsdb)
    assert disk.synced_size(name) == disk.size(name)
    # Crash immediately after: recovery restores the full database from
    # the checkpoint alone.
    disk.crash()
    recovered, report = recover(disk)
    assert report.checkpoint_used == name
    assert report.records_replayed == 0
    assert _samples(recovered) == _samples(tsdb)


# ---------------------------------------------------------------------------
# Recovery classification
# ---------------------------------------------------------------------------
def test_recover_cold_start():
    recovered, report = recover(SimDisk())
    assert recovered.sample_count() == 0
    assert report.checkpoint_used is None
    assert report.segments_scanned == 0
    assert report.samples_lost == 0
    assert report.quarantine_only  # no crash report was supplied


def test_recover_replays_flushed_records_exactly():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(10):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.records_replayed == 10
    assert report.samples_lost == 0
    assert _samples(recovered) == _samples(tsdb)


def test_crash_loses_exactly_the_unflushed_tail():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(10):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    for k in range(10, 13):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    assert writer.unflushed_records == 3
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.records_replayed == 10
    assert report.samples_lost == 3
    assert recovered.sample_count() == 10


def test_checkpoint_plus_replay_recovers_everything():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(6):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.checkpoint(tsdb)
    for k in range(6, 9):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.checkpoint_used is not None
    assert report.records_replayed == 3  # only the post-checkpoint tail
    assert report.samples_lost == 0
    assert _samples(recovered) == _samples(tsdb)


def test_corrupt_record_is_quarantined_not_fatal():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    clock = VirtualClock()
    plan = FaultPlan(clock, DeterministicRng(1).fork("plan"))
    for k in range(5):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    # Flip one payload byte of the first durable record in place (bit
    # rot after the write): its CRC must fail, the rest must replay.
    segment = writer.current_segment
    disk._files[segment][HEADER_SIZE + 8] ^= 0x01  # noqa: SLF001
    recovered, report = recover(disk, crash_report=disk.crash(), plan=plan)
    assert report.records_quarantined == 1
    assert report.records_replayed == 4
    assert report.samples_lost == 1  # durable-but-corrupt is still lost
    assert recovered.sample_count() == 4
    journal = plan.journal_text()
    assert f"DISK {segment}@{HEADER_SIZE} wal-record-quarantined" in journal


def test_non_canonical_record_is_quarantined_not_fatal():
    # A record whose CRC verifies but whose label block is not the
    # canonical encoding (unsorted or repeated keys) is damage like any
    # other: counted, journalled, skipped — recovery never raises, and
    # the series' well-formed records on either side still replay.
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    for k in range(3):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    segment = writer.current_segment
    offsets = []
    pairs = Labels.of("m", job="j").items()
    for damaged in (pairs[::-1], pairs + pairs[-1:]):
        offsets.append(disk.size(segment))
        disk.append(segment, reference_record(damaged, 3_500_000, 9.0))
    tsdb.append_sample("m", 4_000_000, 3.0, job="j")
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash(), plan=plan)
    assert report.records_quarantined == 2
    assert report.records_replayed == 4
    assert report.samples_lost == 2
    assert _samples(recovered) == _samples(tsdb)
    for offset in offsets:
        assert (f"DISK {segment}@{offset} wal-record-quarantined"
                in plan.journal_text())


def test_corrupt_length_field_quarantines_segment_remainder():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(5):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    segment = writer.current_segment
    data = disk._files[segment]  # noqa: SLF001
    # Destroy the length prefix of the third record: the framing past it
    # cannot be walked.
    record_len = struct.unpack_from("<I", data, HEADER_SIZE)[0] + 8
    struct.pack_into("<I", data, HEADER_SIZE + 2 * record_len, MAX_RECORD_BYTES + 1)
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.records_replayed == 2
    assert report.segments_quarantined == 1
    assert recovered.sample_count() == 2


def test_corrupt_checkpoint_is_quarantined():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    clock = VirtualClock()
    plan = FaultPlan(clock, DeterministicRng(1).fork("plan"))
    for k in range(4):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    name = writer.checkpoint(tsdb)
    disk._files[name][len(disk._files[name]) // 2] ^= 0x10  # noqa: SLF001
    recovered, report = recover(disk, crash_report=disk.crash(), plan=plan)
    assert report.checkpoints_quarantined == 1
    assert report.checkpoint_used is None
    assert "wal-checkpoint-quarantined" in plan.journal_text()
    # The checkpoint subsumed the segments, so nothing replays — but
    # recovery completes rather than dying.
    assert recovered.sample_count() == 0


def test_torn_tail_is_counted_not_quarantined():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(5):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    tsdb.append_sample("m", 99_000_000, 99.0, job="j")
    # The crash tears the in-flight record: ten bytes of it reach the
    # platter, the rest is destroyed.
    disk.add_crash_fault(lambda name, tail: 10)
    report = disk.crash()
    recovered, recovery = recover(disk, crash_report=report)
    assert recovery.torn_tails == 1
    assert recovery.segments_quarantined == 0
    assert recovery.records_replayed == 5
    assert recovery.samples_lost == 1  # the torn record never made it
    assert recovered.sample_count() == 5


def test_replay_is_idempotent_on_duplicate_records():
    disk = SimDisk()
    writer = WalWriter(disk)
    writer.append(_labels(), 1_000_000, 1.0)
    writer.append(_labels(), 1_000_000, 1.0)  # same instant: a duplicate
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.records_replayed == 1
    assert report.records_duplicate == 1
    assert recovered.sample_count() == 1


def test_empty_rotated_segment_is_routine_not_corruption():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk, segment_max_records=3)
    for k in range(3):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    # Rotation just happened; the fresh segment's header is unsynced and
    # a crash leaves the file empty.
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.segments_quarantined == 0
    assert report.records_replayed == 3
    assert report.samples_lost == 0


def _column_bytes_per_sample(tsdb):
    """What the process pays per stored sample, by ``sys.getsizeof`` of
    the chunk columns (which must be typed arrays, not lists of boxes)."""
    total = samples = 0
    for _labels_, storage in tsdb.series_items():
        for chunk in storage._chunks:  # noqa: SLF001
            for column in (chunk._times, chunk._values):  # noqa: SLF001
                assert isinstance(column, array), type(column)
                total += sys.getsizeof(column)
            samples += len(chunk)
    return total / samples


def test_live_and_recovered_stores_hold_typed_columns():
    # A list-backed chunk paid two list slots plus a boxed float per
    # sample (~52 B), and restore/replay minted a fresh int per sample
    # on top.  Typed columns cost 16 B of payload; array over-allocation
    # and headers must keep the total under 20 B at full chunks, live or
    # recovered (checkpoint restore and WAL replay both).
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)

    def scrape(k):
        for series in range(3):
            tsdb.append(_labels(series), (k + 1) * 10**12, float(k))

    for k in range(2 * CHUNK_SIZE):
        scrape(k)
    writer.checkpoint(tsdb)      # these come back via restore
    for k in range(2 * CHUNK_SIZE, 4 * CHUNK_SIZE):
        scrape(k)                # these via WAL replay
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.checkpoint_used
    assert report.records_replayed == 3 * 2 * CHUNK_SIZE
    assert _samples(recovered) == _samples(tsdb)
    assert _column_bytes_per_sample(tsdb) <= 20
    assert _column_bytes_per_sample(recovered) <= 20


def test_recovered_database_can_keep_ingesting():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(5):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    recovered, _report = recover(disk, crash_report=disk.crash())
    new_writer = WalWriter(disk)
    recovered.attach_wal(new_writer)
    recovered.append_sample("m", 6_000_000, 5.0, job="j")
    assert new_writer.records_total == 1
    assert new_writer.segment_seq > writer.segment_seq
    assert recovered.sample_count() == 6


# ---------------------------------------------------------------------------
# Storage/process injectors: seeded determinism
# ---------------------------------------------------------------------------
def test_bitflip_injector_is_deterministic_per_seed():
    def run(seed):
        disk = SimDisk()
        injector = DiskBitFlipInjector(
            DeterministicRng(seed).fork("flip"), probability=0.5
        ).attach(disk)
        for k in range(40):
            disk.append("f", bytes([k]) * 8)
        return disk.read("f"), injector.flips

    assert run(3) == run(3)
    assert run(3) != run(4)
    data, flips = run(3)
    assert 0 < flips < 40
    clean = b"".join(bytes([k]) * 8 for k in range(40))
    # Every flip changed exactly one bit.
    diff = sum(bin(a ^ b).count("1") for a, b in zip(data, clean))
    assert diff == flips


def test_torn_write_injector_retains_a_seeded_prefix():
    disk = SimDisk()
    injector = TornWriteInjector(
        DeterministicRng(9).fork("torn"), probability=1.0
    ).attach(disk)
    disk.append("f", b"durable")
    disk.sync("f")
    disk.append("f", b"0123456789")
    report = disk.crash()
    tail = report.tails["f"]
    assert injector.tears == 1
    assert 1 <= tail.retained <= 10
    assert disk.read("f") == b"durable" + b"0123456789"[:tail.retained]


def test_crash_injector_schedule_is_a_pure_function_of_the_seed():
    horizon = seconds(600)
    a = CrashInjector(DeterministicRng(7).fork("crash"), mean_interval_s=60.0)
    b = CrashInjector(DeterministicRng(7).fork("crash"), mean_interval_s=60.0)
    assert a.schedule(horizon) == b.schedule(horizon)
    assert a.schedule(horizon)  # crashes actually land inside the horizon
    gaps = [t2 - t1 for t1, t2 in zip([0] + a.schedule(horizon),
                                      a.schedule(horizon))]
    assert all(gap >= seconds(5) for gap in gaps)  # min interval respected
    other = CrashInjector(DeterministicRng(8).fork("crash"), mean_interval_s=60.0)
    assert other.schedule(horizon) != a.schedule(horizon)


def test_crash_injector_max_crashes_truncates_the_schedule():
    injector = CrashInjector(
        DeterministicRng(7).fork("crash"), mean_interval_s=20.0, max_crashes=2
    )
    assert len(injector.schedule(seconds(10_000))) == 2


def test_injector_validation():
    rng = DeterministicRng(1)
    with pytest.raises(NetworkError):
        DiskBitFlipInjector(rng, probability=1.5)
    with pytest.raises(NetworkError):
        TornWriteInjector(rng, probability=-0.1)
    with pytest.raises(NetworkError):
        CrashInjector(rng, mean_interval_s=0)
    with pytest.raises(NetworkError):
        CrashInjector(rng, restart_delay_s=-1)


# ---------------------------------------------------------------------------
# Batched appends: one disk write per flush boundary, same bytes
# ---------------------------------------------------------------------------

def _wal_files(disk):
    return {name: disk.read(name) for name in disk.list_files("wal/")}


@pytest.mark.parametrize("flush_every", [0, 3, 7])
def test_append_many_bytes_and_counters_equal_append(flush_every):
    # append_many is the scrape cycle's write-through: the record
    # stream, every flush boundary, and every rotation must land exactly
    # as if each record had been appended individually.
    disk_a, disk_b = SimDisk(), SimDisk()
    one = WalWriter(disk_a, flush_every_records=flush_every,
                    segment_max_records=10)
    many = WalWriter(disk_b, flush_every_records=flush_every,
                     segment_max_records=10)
    entries = [
        (_labels(series), (k + 1) * 1_000_000, float(k))
        for k in range(9) for series in range(3)
    ]
    # Three batches of varying size, crossing flush and rotation
    # boundaries mid-batch.
    for chunk in (entries[:5], entries[5:21], entries[21:]):
        for labels, time_ns, value in chunk:
            one.append(labels, time_ns, value)
        many.append_many(chunk)
    assert _wal_files(disk_b) == _wal_files(disk_a)
    for attr in ("records_total", "flushes_total", "segments_total",
                 "unflushed_records"):
        assert getattr(many, attr) == getattr(one, attr), attr


def test_append_many_empty_batch_is_a_no_op():
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=2)
    before = _wal_files(disk)
    writer.append_many([])
    assert _wal_files(disk) == before
    assert writer.records_total == 0
