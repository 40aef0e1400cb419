"""Unit tests for the durability layer: SimDisk, the WAL, recovery.

Covers the medium's sync/crash semantics, the record codec, segment
lifecycle (rotation, flush accounting, sequence continuation), the
checkpoint write ordering, and every recovery classification — replay,
duplicate, torn tail, quarantined record, quarantined segment,
quarantined checkpoint — with *exact* loss accounting against the
disk's own crash report.  The storage/process injectors are checked for
the same seeded determinism the network injectors guarantee.
"""

import os
import struct
import sys
import zlib
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
    RECORD_SAMPLES,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    WalWriter,
    checkpoint_name,
    encode_sample_run,
    encode_series_record,
    recover,
    segment_name,
)
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.rng import DeterministicRng
from tests.codec_oracle import (
    ReferenceLogV3,
    WalWriterV1,
    reference_crash_loss,
    reference_deflated_snapshot,
    reference_replay_v3,
    reference_sample_run,
    reference_sample_run_v2,
    reference_series_record,
    segment_frames,
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
def _segment(*records, seq=1, version=SEGMENT_VERSION):
    return (SEGMENT_MAGIC + struct.pack("<HI", version, seq)
            + b"".join(records))


def _disk_with(*records, flushed=True):
    """A medium whose one segment holds ``records`` behind a header."""
    disk = SimDisk()
    name = segment_name("wal", 1)
    disk.append(name, _segment(*records))
    if flushed:
        disk.sync(name)
    return disk


def test_record_roundtrip():
    labels = Labels.of("m", job="j", zone="eu", a="1")
    series = encode_series_record(7, labels)
    run = encode_sample_run(
        array("I", [7, 7]), array("q", [12345, 12346]), array("d", [-2.5, 0.5]))
    for record in (series, run):
        (length,) = struct.unpack_from("<I", record, 0)
        assert length == len(record) - 8
    assert len(run) == 8 + 5 + 2 * 20
    assert run == reference_sample_run([(7, 12345, -2.5), (7, 12346, 0.5)])
    samples, _cursors, lost = reference_replay_v3(_segment(series, run))
    assert samples == [(labels, 12345, -2.5), (labels, 12346, 0.5)]
    assert lost == 0
    recovered, report = recover(_disk_with(series, run))
    assert _samples(recovered) == {labels: [(12345, -2.5), (12346, 0.5)]}
    assert report.records_replayed == 2


def test_cached_encoder_is_byte_identical():
    # The writer builds a series record once per series and reuses the
    # framed bytes in every later segment; whatever it reuses must be
    # what the from-scratch encoder writes.
    disk = SimDisk()
    writer = WalWriter(disk, segment_max_records=2)
    eu = Labels.of("m", job="j", zone="eu")
    other = Labels.of("n", job="j")
    entries = [(eu, 10, 1.5), (eu, 20, 2.5), (other, 10, -1.0), (eu, 30, 0.0)]
    for entry in entries:
        writer.append(*entry)
    series = {eu: reference_series_record(0, eu.items()),
              other: reference_series_record(1, other.items())}
    assert disk.read(segment_name("wal", 1)) == _segment(
        series[eu], reference_sample_run([(0, 10, 1.5)]),
        reference_sample_run([(0, 20, 2.5)]))
    # Second segment: both series declared again, from the memo.
    assert disk.read(segment_name("wal", 2)) == _segment(
        series[other], reference_sample_run([(1, 10, -1.0)]),
        series[eu], reference_sample_run([(0, 30, 0.0)]), seq=2)
    assert len(writer._series) == 2  # noqa: SLF001 - one entry per label set
    # A label set that fails a check raises on every call and is never
    # memoised or counted as declared — whichever check it fails.
    too_long = Labels.of("m", k="v" * 70_000)
    too_large = Labels.of("m", **{f"k{i}": "v" * 60_000 for i in range(18)})
    before = _wal_files(disk)
    for labels, message in ((too_long, "too long"), (too_large, "too large")):
        for method in (writer.append, lambda *e: writer.append_many([e])):
            with pytest.raises(WalError, match=message):
                method(labels, 1, 1.0)
        assert labels not in writer._series  # noqa: SLF001
    assert _wal_files(disk) == before
    assert writer.records_total == 4


def test_a_failed_batch_still_lands_the_series_it_declared():
    # A series counts as declared in the segment from the moment the
    # writer says so; if the run that followed cannot be packed, the
    # series record must reach the medium anyway or every later sample
    # of that series in this segment would name a ref nobody declared.
    disk = SimDisk()
    tsdb = Tsdb()
    writer = WalWriter(disk)
    with pytest.raises(WalError, match="not a"):
        writer.append_many([(_labels(0), 1, 1.0), (_labels(1), 2**70, 1.0)])
    assert writer.records_total == 0
    tsdb.attach_wal(writer)
    tsdb.append(_labels(0), 5, 5.0)
    tsdb.append(_labels(1), 5, 6.0)
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert _samples(recovered) == _samples(tsdb)
    assert report.samples_lost == 0


records = st.lists(wire_entries, max_size=40)


def _apply(writers, entries, cuts):
    """Feed ``entries`` to every writer, alternating scalar appends and
    batches cut at ``cuts``."""
    bounds = sorted(set(cuts) | {0, len(entries)})
    for batch, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for writer in writers:
            if batch % 2:
                writer.append_many(entries[lo:hi])
            else:
                for labels, time_ns, value in entries[lo:hi]:
                    writer.append(labels, time_ns, value)


@given(records)
def test_any_interleaving_through_one_memo_matches_reference(entries):
    disk = SimDisk()
    writer = WalWriter(disk)
    model = ReferenceLogV3()
    for labels, time_ns, value in entries:
        writer.append(labels, time_ns, value)
        model.append(labels, time_ns, value)
        assert disk.read(writer.current_segment) == model.segments[-1]
    series = {labels for labels, _t, _v in entries}
    assert set(writer._series) == series  # noqa: SLF001
    # ...and replay hands every sample of a series the one interned
    # Labels object, read back exactly as the slow reader reads it.
    samples, _cursors, lost = reference_replay_v3(model.segments[-1])
    assert (samples, lost) == (entries, 0)
    recovered, report = recover(disk)
    assert report.records_replayed + report.records_duplicate == len(entries)
    assert {labels for labels, _s in recovered.series_items()} <= series


@given(
    entries=records,
    cuts=st.lists(st.integers(0, 40), max_size=6),
    flush_every=st.integers(0, 5),
    segment_max=st.integers(1, 7),
)
def test_segments_equal_concatenated_reference_records(
        entries, cuts, flush_every, segment_max):
    # Whatever mix of append / append_many calls delivers the samples,
    # and wherever count-based flushes and rotations fall inside them,
    # the medium holds exactly what the one-sample-at-a-time model
    # writes: same series records, same runs, cut at the same places.
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=flush_every,
                       segment_max_records=segment_max)
    model = ReferenceLogV3(flush_every, segment_max)
    _apply((writer, model), entries, cuts)
    names = disk.list_files("wal/segment-")
    assert [disk.read(name) for name in names] == model.segments
    assert len(names) == len(entries) // segment_max + 1
    # The durable prefix ends exactly at the last flush boundary...
    assert [disk.synced_size(name) for name in names] == model.durable
    assert writer.records_total == model.samples == len(entries)
    assert writer.unflushed_records == model.unflushed
    # ...which is where the version-1 writer put it, sample for sample.
    control = WalWriterV1(SimDisk(), flush_every_records=flush_every,
                          segment_max_records=segment_max)
    _apply((control,), entries, cuts)
    assert (writer.flushes_total, writer.unflushed_records) == (
        control.flushes_total, control.unflushed_records)
    assert names == control.disk.list_files("wal/segment-")
    for name in names:
        durable, _c, _l = reference_replay_v3(
            disk.read(name)[:disk.synced_size(name)])
        assert len(durable) == _v1_records(
            control.disk.read(name)[:control.disk.synced_size(name)])


def _v1_records(data):
    """Whole version-1 records in a headered segment prefix."""
    return sum(1 for _frame in segment_frames(data))


def _framed(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def test_decode_rejects_malformed_payloads():
    # Payloads whose CRC verifies but which are not what their kind byte
    # says: each is quarantined and counted by its framing, the intact
    # records around it replay, recovery never raises.
    labels = _labels()
    series = reference_series_record(0, labels.items())
    good = reference_sample_run([(0, 1, 1.0)])
    run = good[8:]
    damaged = {
        "unknown kind": _framed(b"\x63" + run[1:]),
        "truncated sample": _framed(run[:-3]),
        "trailing byte": _framed(run + b"\x00"),
        "count says two": reference_sample_run([(0, 2, 2.0)], count=2),
        "count says none": reference_sample_run([(0, 2, 2.0)], count=0),
        "bare run head": _framed(run[:5]),
        "undeclared ref": reference_sample_run([(0, 2, 2.0), (9, 2, 2.0)]),
    }
    for what, record in damaged.items():
        tail = reference_sample_run([(0, 3, 3.0)])
        recovered, report = recover(_disk_with(series, good, record, tail))
        assert _samples(recovered) == {labels: [(1, 1.0), (3, 3.0)]}, what
        expected = max(0, (len(record) - 8 - 5) // 20)
        assert report.records_quarantined == expected, what
        assert report.samples_lost == expected, what
        _s, _c, lost = reference_replay_v3(
            _segment(series, good, record, tail))
        assert lost == expected, what


def test_decode_rejects_non_canonical_label_blocks():
    # Duplicate keys would collapse (label count != labels stored) and
    # unsorted ones would give one series two encodings: such a series
    # record declares nothing, so the runs naming its ref are lost —
    # and counted.
    pairs = _labels().items()
    sound = reference_series_record(0, _labels(1).items())
    for damaged in (pairs[::-1], pairs + pairs[-1:], pairs[:1] + pairs[:1]):
        disk = _disk_with(
            sound, reference_series_record(1, damaged),
            reference_sample_run([(0, 1, 1.0), (1, 1, 1.0)]),
            reference_sample_run([(1, 2, 2.0)]),
            reference_sample_run([(0, 2, 2.0)]))
        recovered, report = recover(disk)
        assert _samples(recovered) == {_labels(1): [(2, 2.0)]}
        assert report.series_records_quarantined == 1
        assert report.records_quarantined == report.samples_lost == 3


def test_encode_rejects_oversized_components():
    with pytest.raises(WalError, match="too long"):
        encode_series_record(0, Labels.of("m", k="v" * 70_000))
    with pytest.raises(WalError, match="1\\.\\."):
        encode_sample_run(array("I"), array("q"), array("d"))


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


def _first_run_offset(disk, segment):
    """Where the first samples record of a written segment starts."""
    return next(offset for offset, payload, _ok
                in segment_frames(disk.read(segment))
                if payload[0] == RECORD_SAMPLES)


def test_corrupt_record_is_quarantined_not_fatal():
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    clock = VirtualClock()
    plan = FaultPlan(clock, DeterministicRng(1).fork("plan"))
    for k in range(5):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    # Flip one payload byte of the first durable run in place (bit rot
    # after the write): its CRC must fail, the rest must replay.
    segment = writer.current_segment
    offset = _first_run_offset(disk, segment)
    disk._files[segment][offset + 8 + 10] ^= 0x01  # noqa: SLF001
    recovered, report = recover(disk, crash_report=disk.crash(), plan=plan)
    assert report.records_quarantined == 1
    assert report.records_replayed == 4
    assert report.samples_lost == 1  # durable-but-corrupt is still lost
    assert recovered.sample_count() == 4
    journal = plan.journal_text()
    assert f"DISK {segment}@{offset} wal-record-quarantined" in journal


def test_corrupt_series_record_costs_exactly_the_runs_that_name_it():
    # Rot in a series record destroys no sample by itself; what is lost
    # is every run in *that segment* naming the ref — whole runs, the
    # other series' samples in them included — and the next segment,
    # which declares the series again, replays in full.
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk, segment_max_records=6)
    for k in range(4):
        tsdb.append_batch([(_labels(0), (k + 1) * 1000, 0.0),
                           (_labels(1), (k + 1) * 1000, 1.0)])
    writer.flush()
    first = segment_name("wal", 1)
    disk._files[first][HEADER_SIZE + 8 + 12] ^= 0x40  # noqa: SLF001
    recovered, report = recover(disk, crash_report=disk.crash())
    assert report.series_records_quarantined == 1
    assert report.records_quarantined == report.samples_lost == 6
    assert _samples(recovered) == {
        _labels(0): [(4000, 0.0)], _labels(1): [(4000, 1.0)]}


def test_non_canonical_record_is_quarantined_not_fatal():
    # A series record whose CRC verifies but whose label block is not
    # the canonical encoding (unsorted or repeated keys) is damage like
    # any other: counted, journalled, skipped along with the runs that
    # name it — recovery never raises, and the well-formed records on
    # either side still replay.
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    for k in range(3):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    segment = writer.current_segment
    offsets = []
    pairs = Labels.of("m", job="j").items()
    for ref, damaged in enumerate((pairs[::-1], pairs + pairs[-1:]), 50):
        for record in (reference_series_record(ref, damaged),
                       reference_sample_run([(ref, 3_500_000, 9.0)])):
            offsets.append(disk.size(segment))
            disk.append(segment, record)
    tsdb.append_sample("m", 4_000_000, 3.0, job="j")
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash(), plan=plan)
    assert report.series_records_quarantined == 2
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
    # Destroy the length prefix of the third run: the framing past it
    # cannot be walked.
    run_len = len(reference_sample_run([(0, 0, 0.0)]))
    third = _first_run_offset(disk, segment) + 2 * run_len
    struct.pack_into("<I", data, third, MAX_RECORD_BYTES + 1)
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
# Batched appends: one run per flush boundary, same samples, same counters
# ---------------------------------------------------------------------------

def _wal_files(disk):
    return {name: disk.read(name) for name in disk.list_files("wal/")}


def _unframed_runs(data):
    """The ``(ref, time_ns, value)`` samples of each samples record, one
    list per record, read column by column."""
    runs = []
    for _offset, payload, _ok in segment_frames(data):
        if payload[0] == RECORD_SAMPLES:
            count = (len(payload) - 5) // 20
            runs.append(list(zip(
                struct.unpack_from(f"<{count}I", payload, 5),
                struct.unpack_from(f"<{count}q", payload, 5 + 4 * count),
                struct.unpack_from(f"<{count}d", payload, 5 + 12 * count))))
    return runs


def _unframed(data):
    """A segment with the run framing taken out: header, series and
    cursor records in order, and every run's samples in order — what
    stays the same however samples are batched (a batch declares its new
    series ahead of its one run, so the two streams interleave
    differently)."""
    metadata = [data[:HEADER_SIZE]] + [
        data[offset:offset + 8 + len(payload)]
        for offset, payload, _ok in segment_frames(data)
        if payload[0] != RECORD_SAMPLES]
    return b"".join(metadata), sum(_unframed_runs(data), [])


@pytest.mark.parametrize("flush_every", [0, 3, 7])
def test_append_many_bytes_and_counters_equal_append(flush_every):
    # append_many is the scrape cycle's write-through: every sample,
    # every series record, every flush boundary and every rotation must
    # land exactly as if each sample had been appended individually —
    # only the framing differs, one run per batch instead of one per
    # sample.
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
    files_a, files_b = _wal_files(disk_a), _wal_files(disk_b)
    assert list(files_b) == list(files_a)
    for name in files_a:
        assert _unframed(files_b[name]) == _unframed(files_a[name]), name
        assert len(files_b[name]) <= len(files_a[name])
        assert (reference_replay_v3(files_b[name][:disk_b.synced_size(name)])
                == reference_replay_v3(files_a[name][:disk_a.synced_size(name)]))
    for attr in ("records_total", "flushes_total", "segments_total",
                 "unflushed_records"):
        assert getattr(many, attr) == getattr(one, attr), attr
    # One-sample batches are the scalar path, byte for byte.
    disk_c = SimDisk()
    singles = WalWriter(disk_c, flush_every_records=flush_every,
                        segment_max_records=10)
    for entry in entries:
        singles.append_many([entry])
    assert _wal_files(disk_c) == files_a


@pytest.mark.parametrize("flush_every, segment_max", [(0, 4096), (2, 5), (3, 4)])
def test_append_is_append_many_of_one_and_the_reference_record(
        flush_every, segment_max):
    # One sample written by append, by append_many([sample]) and by the
    # one-sample-at-a-time model: the same medium, byte for byte and
    # durable prefix for durable prefix, across flushes and rotations.
    entries = [(_labels(k % 3), (k + 1) * 1000, float(k)) for k in range(14)]
    model = ReferenceLogV3(flush_every, segment_max)
    for entry in entries:
        model.append(*entry)
    for write in (WalWriter.append,
                  lambda writer, *entry: writer.append_many([entry])):
        disk = SimDisk()
        writer = WalWriter(disk, flush_every_records=flush_every,
                           segment_max_records=segment_max)
        for entry in entries:
            write(writer, *entry)
        names = disk.list_files("wal/segment-")
        assert [disk.read(name) for name in names] == model.segments
        assert [disk.synced_size(name) for name in names] == model.durable
        assert writer.records_total == len(entries)


@given(
    entries=records,
    cuts=st.lists(st.integers(0, 40), max_size=8),
    flushes=st.sets(st.integers(0, 8), max_size=3),
    flush_every=st.integers(0, 5),
    segment_max=st.integers(1, 7),
)
def test_a_commit_group_writes_what_one_batch_of_its_commits_would(
        entries, cuts, flushes, flush_every, segment_max):
    # Commits inside a group are counted as they are made — every
    # counter equals the ungrouped writer's after every commit — and
    # written as if the commits between two explicit flushes had been
    # one append_many: same bytes, same durable prefix, same boundaries.
    bounds = sorted(set(cuts) | {0, len(entries)})
    grouped, plain = (
        WalWriter(SimDisk(), flush_every_records=flush_every,
                  segment_max_records=segment_max) for _ in range(2))
    model = ReferenceLogV3(flush_every, segment_max)
    pending = []
    grouped.open_group()
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if index in flushes:
            model.append_many(pending)
            model.flush()
            pending = []
            for writer in (grouped, plain):
                writer.flush()
        grouped.commit(entries[lo:hi])
        plain.commit(entries[lo:hi])
        pending += entries[lo:hi]
        for attr in ("records_total", "unflushed_records", "flushes_total",
                     "segments_total"):
            assert getattr(grouped, attr) == getattr(plain, attr), attr
    grouped.close_group()
    model.append_many(pending)
    disk = grouped.disk
    names = disk.list_files("wal/segment-")
    assert [disk.read(name) for name in names] == model.segments
    assert [disk.synced_size(name) for name in names] == model.durable
    assert (grouped.records_total, grouped.unflushed_records) == (
        model.samples, model.unflushed)


def test_commit_groups_do_not_nest_and_close_on_error():
    writer = WalWriter(SimDisk())
    tsdb = Tsdb()
    tsdb.attach_wal(writer)
    with pytest.raises(RuntimeError):
        with tsdb.commit_group():
            tsdb.append(_labels(0), 1, 1.0)
            assert writer.group_open and writer.records_total == 1
            with pytest.raises(WalError, match="already open"):
                writer.open_group()
            raise RuntimeError("the cycle failed")
    # The group closed on the way out and wrote what it had staged.
    assert not writer.group_open
    samples, _cursors, _lost = reference_replay_v3(
        writer.disk.read(writer.current_segment))
    assert samples == [(_labels(0), 1, 1.0)]
    with Tsdb().commit_group():  # no log attached: nothing to group
        pass


def test_a_batch_too_large_for_one_record_is_cut_into_runs(monkeypatch):
    # A run must fit MAX_RECORD_BYTES; past that a batch becomes several
    # runs with no flush in between.
    from repro.pmag import wal
    monkeypatch.setattr(wal, "MAX_RUN_SAMPLES", 3)
    disk = SimDisk()
    writer = WalWriter(disk)
    entries = [(_labels(k % 2), (k + 1) * 1000, float(k)) for k in range(8)]
    writer.append_many(entries)
    assert (writer.records_total, writer.flushes_total) == (8, 0)
    samples, _cursors, lost = reference_replay_v3(
        disk.read(writer.current_segment))
    assert (samples, lost) == (entries, 0)
    data = disk.read(writer.current_segment)
    assert [len(run) for run in _unframed_runs(data)] == [3, 3, 2]


def test_append_many_empty_batch_is_a_no_op():
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=2)
    before = _wal_files(disk)
    writer.append_many([])
    assert _wal_files(disk) == before
    assert writer.records_total == 0


# ---------------------------------------------------------------------------
# Damage matrix: every truncation offset, every byte flipped
# ---------------------------------------------------------------------------
def _model(samples):
    """``{labels: [(t, v)]}`` after appending ``samples`` in order under
    the store's per-series monotonic rule."""
    out = {}
    for labels, time_ns, value in samples:
        series = out.setdefault(labels, [])
        if not series or time_ns > series[-1][0]:
            series.append((time_ns, value))
    return out


def _clone(disk):
    copy = SimDisk()
    for name, data in disk._files.items():  # noqa: SLF001
        copy._files[name] = bytearray(data)  # noqa: SLF001
        copy._synced[name] = disk._synced[name]  # noqa: SLF001
    return copy


def _damage_rig(flush_at_end):
    """Two segments holding everything the format has — scalar appends,
    batches, series declared again after rotation, a cursor — the second
    with a flush in the middle and runs, a series record and the cursor
    behind it.  Returns the medium and the samples in log order."""
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk, segment_max_records=16)
    written = []
    for k in range(10):
        batch = [(_labels(i), (k + 1) * 1000, k + i / 4)
                 for i in range(2 if k < 7 else 4)]
        written += batch
        if k % 3:
            tsdb.append_batch(batch)
        else:
            for entry in batch:
                tsdb.append(*entry)
        if k == 6:
            writer.flush()
        if k == 8:
            writer.append_cursor("rules/x", 8000)
    if flush_at_end:
        writer.flush()
    assert disk.list_files("wal/segment-") == [
        segment_name("wal", 1), segment_name("wal", 2)]
    return disk, written


def test_every_truncation_offset_of_the_unflushed_tail():
    # A crash may leave any prefix of the unflushed tail on the platter.
    # Whatever it leaves: recovery does not raise, reports exactly the
    # loss the medium's own crash report implies, and the store is the
    # log's surviving prefix — nothing invented, nothing else missing.
    rig, written = _damage_rig(flush_at_end=False)
    live = segment_name("wal", 2)
    tail = rig.size(live) - rig.synced_size(live)
    assert tail > 200
    losses = set()
    for retained in range(tail + 1):
        disk = _clone(rig)
        disk.add_crash_fault(lambda _name, _tail, keep=retained: keep)
        crash = disk.crash()
        recovered, report = recover(disk, crash_report=crash)
        lost = reference_crash_loss(crash)
        assert report.samples_lost == lost, retained
        assert report.records_quarantined == 0, retained
        assert report.records_replayed == len(written) - lost, retained
        assert _samples(recovered) == _model(
            written[:len(written) - lost]), retained
        losses.add(lost)
    # One whole run at a time: the 2-, 4- and 4x1-sample runs of the
    # tail give these and only these losses.
    assert losses == {0, 1, 2, 3, 4, 8, 10}


def _frame_layout(data):
    """Byte roles in a well-formed segment: the offsets that belong to
    the header, to a frame's length field, and to the kind byte of a
    metadata (cursor or series) frame."""
    header = set(range(HEADER_SIZE))
    lengths, metadata_kinds = set(), set()
    for offset, payload, _ok in segment_frames(data):
        lengths.update(range(offset, offset + 4))
        if payload[0] != RECORD_SAMPLES:
            metadata_kinds.add(offset + 8)
    return header, lengths, metadata_kinds


def test_every_byte_flip_of_durable_segments():
    # Bit rot anywhere in a durable segment.  Recovery never raises and
    # never invents a sample; it agrees with the slow reference reader
    # on what replays and what is lost; and outside the framing's own
    # length fields the loss it reports is exact — a run whose CRC fails
    # is counted by its framing length, a rotted series record by the
    # runs that can no longer name their series.
    rig, written = _damage_rig(flush_at_end=True)
    names = rig.list_files("wal/segment-")
    whole = _model(written)
    costly = 0
    for name in names:
        clean = rig.read(name)
        header, lengths, metadata_kinds = _frame_layout(clean)
        others = [rig.read(other) for other in names if other != name]
        for index in range(len(clean)):
            disk = _clone(rig)
            disk._files[name][index] ^= 1 << (index % 8)  # noqa: SLF001
            recovered, report = recover(disk)
            got = _samples(recovered)
            for labels, series in got.items():
                assert set(series) <= set(whole[labels]), (name, index)
            if index in header:
                assert report.segments_quarantined == 1, (name, index)
                damaged = []
            else:
                damaged = [disk.read(name)]
            samples, lost = [], 0
            for data in sorted(others + damaged):  # seq order: header bytes
                replayed, _cursors, gone = reference_replay_v3(data)
                samples += replayed
                lost += gone
            assert got == _model(samples), (name, index)
            assert report.records_quarantined == lost, (name, index)
            if index in header or index in lengths:
                continue
            missing = len(written) - recovered.sample_count()
            if index in metadata_kinds:
                assert report.samples_lost >= missing, (name, index)
            else:
                assert report.samples_lost == missing, (name, index)
            costly += missing > 0
    assert costly > 1000  # only rot in the cursor frame costs no sample


# ---------------------------------------------------------------------------
# Segments of any other version: quarantined, never replayed
# ---------------------------------------------------------------------------
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "wal_v1")
V1_SERIES = [
    Labels.of("wal_fixture_total", job="fixture", instance="host0"),
    Labels.of("wal_fixture_total", job="fixture", instance="host1"),
    Labels.of("wal_fixture_ratio", job="fixture", zone="日本"),
]


def _v1_fixture_disk(checkpoint=True, current_layout=False):
    """The medium a pre-v2 monitor left behind (written by the last
    commit whose ``WalWriter`` produced version 1): a checkpoint of 8
    scrapes of three series (archive version 2), then 12 more scrapes
    and a cursor over three version-1 segments.  ``current_layout``
    re-wraps the checkpoint's body in archive version 3."""
    disk = SimDisk()
    for base in sorted(os.listdir(V1_FIXTURE)):
        if base.endswith(".ckpt") and not checkpoint:
            continue
        with open(os.path.join(V1_FIXTURE, base), "rb") as handle:
            data = handle.read()
        if base.endswith(".ckpt") and current_layout:
            data = reference_deflated_snapshot(data[12:])
        disk.append(f"wal/{base}", data)
        disk.sync(f"wal/{base}")
    return disk


def _v1_fixture_samples(first, last):
    return {
        labels: [((k + 1) * 5_000_000_000, k + i / 4)
                 for k in range(first, last)]
        for i, labels in enumerate(V1_SERIES)
    }


def test_v1_fixture_still_recovers():
    # As written, every file is a layout recovery no longer reads: the
    # version-2 checkpoint and the three version-1 segments are all
    # quarantined, and nothing is restored.
    disk = _v1_fixture_disk()
    for name in disk.list_files("wal/segment-"):
        assert struct.unpack_from("<H", disk.read(name), 8) == (1,)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    recovered, report = recover(disk, plan=plan)
    assert report.checkpoint_used is None
    assert report.checkpoints_quarantined == 1
    assert (report.segments_scanned, report.segments_quarantined) == (3, 3)
    assert report.records_replayed == 0
    assert recovered.series_count() == 0
    assert plan.journal_text().count("wal-checkpoint-quarantined") == 1
    assert plan.journal_text().count("wal-segment-quarantined") == 3
    # With its checkpoint in the current layout, the checkpoint
    # restores; the three version-1 segments behind it are quarantined,
    # not replayed.
    disk = _v1_fixture_disk(current_layout=True)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    recovered, report = recover(disk, plan=plan)
    assert report.checkpoint_used == checkpoint_name("wal", 3)
    assert (report.segments_scanned, report.segments_quarantined) == (3, 3)
    assert (report.records_replayed, report.cursor_records) == (0, 0)
    assert report.cursors == {}
    assert _samples(recovered) == _v1_fixture_samples(0, 8)
    assert plan.journal_text().count("wal-segment-quarantined") == 3
    # Without the checkpoint nothing is left to restore.
    recovered, report = recover(_v1_fixture_disk(checkpoint=False))
    assert (report.segments_quarantined, report.records_replayed) == (3, 0)
    assert recovered.series_count() == 0


def test_a_v2_writer_takes_over_a_v1_medium():
    # The upgrade: recover what the checkpoint holds, keep writing (the
    # new writer continues the sequence past the version-1 segments),
    # crash again — the second recovery replays the version-3 segment
    # and still quarantines the three older ones.
    disk = _v1_fixture_disk(current_layout=True)
    tsdb, _report = recover(disk)
    writer = WalWriter(disk)
    assert writer.segment_seq == 7
    tsdb.attach_wal(writer)
    for i, labels in enumerate(V1_SERIES):
        tsdb.append(labels, 21 * 5_000_000_000, 20 + i / 4)
    writer.flush()
    recovered, report = recover(disk, crash_report=disk.crash())
    assert (report.segments_scanned, report.segments_quarantined) == (4, 3)
    assert report.records_replayed == 3
    expected = _v1_fixture_samples(0, 8)
    for labels, samples in _v1_fixture_samples(20, 21).items():
        expected[labels] += samples
    assert _samples(recovered) == expected
    header = disk.read(segment_name("wal", 7))[:HEADER_SIZE]
    assert header == SEGMENT_MAGIC + struct.pack("<HI", SEGMENT_VERSION, 7)


def test_a_version2_segment_is_quarantined():
    # The layout version 3 replaced — the same series records, each
    # run's samples interleaved — written after the fixture's
    # checkpoint: like the three version-1 segments beside it, it is
    # quarantined, and only the checkpoint restores.
    disk = _v1_fixture_disk(current_layout=True)
    name = segment_name("wal", 7)
    disk.append(name, _segment(
        reference_series_record(0, V1_SERIES[0].items()),
        reference_sample_run_v2([(0, 21 * 5_000_000_000, 20.0)]),
        seq=7, version=2))
    disk.sync(name)
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    recovered, report = recover(disk, plan=plan)
    assert (report.segments_scanned, report.segments_quarantined) == (4, 4)
    assert (report.records_replayed, report.records_quarantined) == (0, 0)
    assert _samples(recovered) == _v1_fixture_samples(0, 8)
    assert f"{name} wal-segment-quarantined" in plan.journal_text()


@pytest.mark.parametrize("version", [0, 1, 2, 4, 0xFFFF])
def test_a_segment_of_any_other_version_is_quarantined(version):
    # Whatever the frames behind it hold, a header naming a version other
    # than 3 is a bad header: counted, journalled, never replayed.
    disk = SimDisk()
    tsdb, writer = _tsdb_with_wal(disk)
    for k in range(4):
        tsdb.append_sample("m", (k + 1) * 1_000_000, float(k), job="j")
    writer.flush()
    struct.pack_into(
        "<H", disk._files[writer.current_segment], 8, version)  # noqa: SLF001
    plan = FaultPlan(VirtualClock(), DeterministicRng(1).fork("plan"))
    recovered, report = recover(disk, plan=plan)
    assert (report.segments_scanned, report.segments_quarantined) == (1, 1)
    assert (report.records_replayed, report.records_quarantined) == (0, 0)
    assert recovered.series_count() == 0
    assert (f"{writer.current_segment} wal-segment-quarantined"
            in plan.journal_text())
