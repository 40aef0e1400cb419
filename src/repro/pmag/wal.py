"""Write-ahead log and crash recovery for the TSDB.

The durability layer behind ``TeemonConfig(enable_wal=True)``.  Every
sample the TSDB accepts is written through to an append-only log on a
:class:`~repro.simkernel.disk.SimDisk`; periodic checkpoints serialise
the whole database in the :mod:`repro.pmag.archive` snapshot format and
truncate the replayed segments.  After a crash, :func:`recover` loads the
newest checkpoint that passes its checksum, replays every WAL segment
written after it, verifies each record's CRC32, and *quarantines* (skips
and counts, never dies on) anything corrupt.

On-disk layout (all little-endian), under one directory prefix::

    segment-{seq:08d}.wal     header: magic "TMWALSEG" | u16 version | u32 seq
                              record: u32 len | u32 crc32(payload) | payload
    checkpoint-{seq:08d}.ckpt archive snapshot bytes (version 2, self-checksummed)

Record payload::

    u8 kind (1 = sample) | u32 label count
    (u16 len + utf8 key | u16 len + utf8 value)*  — sorted by key
    i64 time_ns | f64 value

Segments and checkpoints draw from one monotonic sequence counter, which
gives a total order over durability events: recovery replays exactly the
segments whose sequence number is greater than the chosen checkpoint's.
Checkpointing orders its writes for crash safety — flush the live
segment, write *and sync* the checkpoint, delete older checkpoints,
rotate to a fresh segment, then delete the segments the checkpoint
subsumes — so at every instant either the old checkpoint plus old
segments or the new checkpoint is durable and complete.

Durability contract: appended records are durable only after
:meth:`WalWriter.flush` (which ``fsync``\\ s the live segment), so the
maximum loss after a crash is the records appended since the last flush.
The simulated medium reports exactly what a crash destroyed
(:class:`~repro.simkernel.disk.DiskCrashReport`); :func:`recover` walks
the discarded tails structurally and reports the loss *exactly* in
:attr:`RecoveryReport.samples_lost` — no guessing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError, TsdbError, WalError
from repro.pmag import archive
from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb
from repro.simkernel.disk import DiskCrashReport, SimDisk

SEGMENT_MAGIC = b"TMWALSEG"
SEGMENT_VERSION = 1
#: Segment header: magic | u16 version | u32 seq.
HEADER_SIZE = len(SEGMENT_MAGIC) + 6
#: Upper bound on one record's payload; a length field beyond this is
#: treated as corruption of the framing itself (the rest of the segment
#: cannot be walked and is quarantined wholesale).
MAX_RECORD_BYTES = 1 << 20

RECORD_SAMPLE = 1
#: Rule-materialization cursor: ``u8 kind | u16 len + utf8 key | i64 ns``.
#: Cursor frames ride the same segments as samples but are *metadata* —
#: they are excluded from every sample counter (``records_total``,
#: ``unflushed_records``, ``samples_lost``), because losing one costs a
#: full rule re-evaluation, never a sample.
RECORD_CURSOR = 2


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"label component too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def pack_labels(labels: Labels) -> bytes:
    """The label block ``(u16-len key | u16-len value)*`` in key order,
    shared by WAL records and remote-write series blocks."""
    return b"".join(_pack_text(part) for pair in labels.items() for part in pair)


def unpack_labels(buf: bytes, offset: int, count: int) -> Tuple[Labels, int]:
    """Parse ``count`` label pairs at ``offset``: (labels, end offset).

    Keys must be strictly ascending (the canonical encoding): duplicates
    would collapse under a stale count, unsorted keys would give one
    series two encodings.  ``struct.error`` is the caller's to wrap.
    """
    mapping: Dict[str, str] = {}
    previous = None
    for _ in range(count):
        (length,) = struct.unpack_from("<H", buf, offset)
        key = buf[offset + 2:offset + 2 + length].decode("utf-8")
        offset += 2 + length
        (length,) = struct.unpack_from("<H", buf, offset)
        mapping[key] = buf[offset + 2:offset + 2 + length].decode("utf-8")
        offset += 2 + length
        if offset > len(buf):
            raise WalError("truncated label text")
        if previous is not None and key <= previous:
            raise WalError(f"label keys not strictly ascending at {key!r}")
        previous = key
    return Labels(mapping), offset


def encode_record(
    labels: Labels, time_ns: int, value: float,
    memo: Optional[Dict[Labels, Tuple[bytes, int]]] = None,
) -> bytes:
    """One framed WAL record (length prefix + CRC32 + payload).

    ``memo`` (label set -> payload prefix and its CRC) makes all but the
    trailing time+value a once-per-series cost; a label set that fails a
    check is never memoised.
    """
    entry = memo.get(labels) if memo is not None else None
    if entry is None:
        prefix = (struct.pack("<BI", RECORD_SAMPLE, len(labels.items()))
                  + pack_labels(labels))
        if len(prefix) + 16 > MAX_RECORD_BYTES:
            raise WalError(f"record payload too large: {len(prefix) + 16} bytes")
        entry = (prefix, zlib.crc32(prefix))
        if memo is not None:
            memo[labels] = entry
    prefix, prefix_crc = entry
    tail = struct.pack("<qd", time_ns, value)
    return struct.pack(
        "<II", len(prefix) + 16, zlib.crc32(tail, prefix_crc)) + prefix + tail


def decode_payload(
    payload: bytes, interned: Optional[Dict[bytes, Labels]] = None,
) -> Tuple[Labels, int, float]:
    """Parse a record payload back into (labels, time_ns, value).

    ``interned`` maps a label prefix (the payload less its 16-byte tail)
    to its labels.  A prefix that parsed once consumed exactly its own
    length, so a hit is the same parse with the walk skipped.
    """
    prefix = payload[:-16]
    labels = interned.get(prefix) if interned is not None else None
    if labels is not None:
        return (labels, *struct.unpack_from("<qd", payload, len(payload) - 16))
    try:
        kind, label_count = struct.unpack_from("<BI", payload, 0)
        if kind != RECORD_SAMPLE:
            raise WalError(f"unknown record kind: {kind}")
        labels, offset = unpack_labels(payload, 5, label_count)
        time_ns, value = struct.unpack_from("<qd", payload, offset)
        if offset + 16 != len(payload):
            raise WalError("trailing bytes in record payload")
    except (struct.error, UnicodeDecodeError) as exc:
        raise WalError(f"malformed record payload: {exc}") from exc
    if interned is not None:
        interned[prefix] = labels
    return labels, time_ns, value


def encode_cursor_record(key: str, cursor_ns: int) -> bytes:
    """One framed materialization-cursor record."""
    payload = struct.pack("<B", RECORD_CURSOR) + _pack_text(key) + struct.pack(
        "<q", cursor_ns
    )
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def decode_cursor_payload(payload: bytes) -> Tuple[str, int]:
    """Parse a cursor payload back into (key, cursor_ns)."""
    try:
        (kind,) = struct.unpack_from("<B", payload, 0)
        if kind != RECORD_CURSOR:
            raise WalError(f"not a cursor record: kind {kind}")
        (length,) = struct.unpack_from("<H", payload, 1)
        if 3 + length + 8 != len(payload):
            raise WalError("malformed cursor payload")
        key = payload[3:3 + length].decode("utf-8")
        (cursor_ns,) = struct.unpack_from("<q", payload, 3 + length)
    except (struct.error, UnicodeDecodeError) as exc:
        raise WalError(f"malformed cursor payload: {exc}") from exc
    return key, cursor_ns


def segment_name(directory: str, seq: int) -> str:
    """Canonical segment file name for a sequence number."""
    return f"{directory}/segment-{seq:08d}.wal"


def shard_directory(directory: str, index: int) -> str:
    """Per-shard WAL directory under one base directory."""
    return f"{directory}/shard-{index:02d}"


def checkpoint_name(directory: str, seq: int) -> str:
    """Canonical checkpoint file name for a sequence number."""
    return f"{directory}/checkpoint-{seq:08d}.ckpt"


def _parse_seq(name: str) -> Optional[int]:
    """Sequence number from a segment/checkpoint file name, else None."""
    base = name.rsplit("/", 1)[-1]
    for prefix, suffix in (("segment-", ".wal"), ("checkpoint-", ".ckpt")):
        if base.startswith(prefix) and base.endswith(suffix):
            digits = base[len(prefix):-len(suffix)]
            if digits.isdigit():
                return int(digits)
    return None


def _count_records(data: bytes, file_offset: int = 0) -> int:
    """Complete records in a byte range starting at ``file_offset``.

    The structural loss oracle: walks length prefixes without checking
    CRCs (a bit-flipped record that never became durable is still a lost
    sample).  ``file_offset`` is where ``data`` began in the segment file
    — a fresh segment's unsynced tail includes the header, which must be
    skipped before the walk.  Only *sample* frames count: cursor frames
    are metadata whose loss destroys no data, so they are invisible to
    loss accounting (the recovery side classifies by the same kind byte,
    which keeps ``samples_lost`` exact).
    """
    pos = HEADER_SIZE - file_offset if file_offset < HEADER_SIZE else 0
    count = 0
    while len(data) - pos >= 8:
        (length,) = struct.unpack_from("<I", data, pos)
        if not 0 < length <= MAX_RECORD_BYTES:
            break
        if pos + 8 + length > len(data):
            break
        if data[pos + 8] == RECORD_SAMPLE:
            count += 1
        pos += 8 + length
    return count


class WalWriter:
    """Appends ingest records to segment files on a simulated disk.

    Attach to a database with :meth:`Tsdb.attach_wal`; the TSDB calls
    :meth:`append` for every accepted sample.  ``flush_every_records``
    bounds the unflushed window by count (0 = only explicit flushes);
    the deployment layer adds time-based flushes on the virtual clock.
    """

    def __init__(
        self,
        disk: SimDisk,
        directory: str = "wal",
        flush_every_records: int = 0,
        segment_max_records: int = 4096,
    ) -> None:
        if segment_max_records < 1:
            raise WalError(f"segment_max_records must be >= 1: {segment_max_records}")
        if flush_every_records < 0:
            raise WalError(f"flush_every_records must be >= 0: {flush_every_records}")
        self.disk = disk
        self.directory = directory
        self.flush_every_records = flush_every_records
        self.segment_max_records = segment_max_records
        self.records_total = 0
        self.cursor_records_total = 0
        self.flushes_total = 0
        self.checkpoints_total = 0
        self.segments_total = 0
        self.unflushed_records = 0
        self._segment_records = 0
        #: Latest cursor per key; re-emitted into the fresh segment on
        #: every checkpoint so truncation never drops cursor durability.
        self._cursors: dict = {}
        #: :func:`encode_record` memo: one entry per series logged here.
        self._record_memo: dict = {}
        # Continue the sequence past anything already on the medium so a
        # writer built after recovery never reuses a live number.
        last = max(
            (s for s in map(_parse_seq, disk.list_files(f"{directory}/"))
             if s is not None),
            default=0,
        )
        self._seq = last
        self._segment = ""
        self._open_segment()

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _open_segment(self) -> None:
        seq = self._next_seq()
        self._segment = segment_name(self.directory, seq)
        header = SEGMENT_MAGIC + struct.pack("<HI", SEGMENT_VERSION, seq)
        self.disk.append(self._segment, header)
        self._segment_records = 0
        self.segments_total += 1

    @property
    def current_segment(self) -> str:
        """Name of the live segment file."""
        return self._segment

    @property
    def segment_seq(self) -> int:
        """Sequence number of the live segment."""
        return self._seq

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def append(self, labels: Labels, time_ns: int, value: float) -> None:
        """Write one accepted sample through to the live segment."""
        record = encode_record(labels, time_ns, value, self._record_memo)
        self.disk.append(self._segment, record)
        self.records_total += 1
        self.unflushed_records += 1
        self._segment_records += 1
        if self.flush_every_records and self.unflushed_records >= self.flush_every_records:
            self.flush()
        if self._segment_records >= self.segment_max_records:
            self.flush()
            self._open_segment()

    def append_many(self, entries) -> None:
        """Write a batch of accepted ``(labels, time_ns, value)`` samples.

        Byte-for-byte and counter-for-counter equivalent to calling
        :meth:`append` per sample — flush and rotation decisions fire at
        exactly the same record boundaries — but consecutive records
        between those boundaries land in one ``disk.append`` each, so a
        scrape cycle's write-through costs a handful of disk writes
        instead of one per sample.
        """
        pending: list = []
        for labels, time_ns, value in entries:
            pending.append(
                encode_record(labels, time_ns, value, self._record_memo))
            self.records_total += 1
            self.unflushed_records += 1
            self._segment_records += 1
            flush_due = bool(
                self.flush_every_records
                and self.unflushed_records >= self.flush_every_records
            )
            rotate_due = self._segment_records >= self.segment_max_records
            if flush_due or rotate_due:
                self.disk.append(self._segment, b"".join(pending))
                pending.clear()
                self.flush()
                if rotate_due:
                    self._open_segment()
        if pending:
            self.disk.append(self._segment, b"".join(pending))

    def append_cursor(self, key: str, cursor_ns: int) -> None:
        """Write one materialization-cursor frame to the live segment.

        Cursor frames are excluded from the sample counters and never
        trigger a flush on their own: a cursor becomes durable with the
        next flush, and a cursor lost to a crash only means the rule
        falls back to a full evaluation — no data is at stake.
        """
        self.disk.append(self._segment, encode_cursor_record(key, cursor_ns))
        self._cursors[key] = cursor_ns
        self.cursor_records_total += 1
        self._segment_records += 1

    def record_cursors(self, cursors: dict) -> None:
        """Seed and persist a cursor map (post-recovery re-arming)."""
        for key in sorted(cursors):
            self.append_cursor(key, cursors[key])

    def flush(self) -> None:
        """Make everything appended so far durable (``fsync``)."""
        if self.disk.synced_size(self._segment) == self.disk.size(self._segment):
            self.unflushed_records = 0
            return
        self.disk.sync(self._segment)
        self.unflushed_records = 0
        self.flushes_total += 1

    def checkpoint(self, tsdb: Tsdb) -> str:
        """Serialise ``tsdb``, then truncate the segments it subsumes.

        The write order is the crash-safety invariant (see the module
        docstring): the old state is deleted only after the new
        checkpoint is durable, and old segments only after the rotation
        that succeeds it — a crash at any point leaves a complete,
        recoverable history on the medium.
        """
        self.flush()
        seq = self._next_seq()
        name = checkpoint_name(self.directory, seq)
        self.disk.write(name, archive.snapshot(tsdb))
        self.disk.sync(name)
        for other in self.disk.list_files(f"{self.directory}/checkpoint-"):
            other_seq = _parse_seq(other)
            if other_seq is not None and other_seq < seq:
                self.disk.delete(other)
        self._open_segment()
        if self._cursors:
            # The deleted segments carried the cursor frames; re-emit the
            # current map into the fresh segment and make it durable so
            # checkpoint truncation never rolls a cursor back.
            frames = b"".join(
                encode_cursor_record(key, self._cursors[key])
                for key in sorted(self._cursors)
            )
            self.disk.append(self._segment, frames)
            self.disk.sync(self._segment)
            self.cursor_records_total += len(self._cursors)
            self._segment_records += len(self._cursors)
        for other in self.disk.list_files(f"{self.directory}/segment-"):
            other_seq = _parse_seq(other)
            if other_seq is not None and other_seq < seq:
                self.disk.delete(other)
        self.checkpoints_total += 1
        return name


@dataclass
class RecoveryReport:
    """What one :func:`recover` pass found, replayed and discarded."""

    #: Checkpoint file restored from, or None (cold start / none usable).
    checkpoint_used: Optional[str] = None
    #: Checkpoint files that failed their checksum or parse.
    checkpoints_quarantined: int = 0
    #: Segment files examined (seq greater than the checkpoint's).
    segments_scanned: int = 0
    #: Segments whose header or framing was unwalkably corrupt.
    segments_quarantined: int = 0
    #: Records re-applied to the database.
    records_replayed: int = 0
    #: Records skipped for CRC mismatch or malformed payload.
    records_quarantined: int = 0
    #: Records rejected as already covered by the checkpoint (idempotent
    #: replay: the out-of-order append check is the deduplicator).
    records_duplicate: int = 0
    #: Segments ending mid-record — the write in flight when power died.
    torn_tails: int = 0
    #: Exact samples destroyed: structurally-counted records in the
    #: crash-discarded tails plus durable-but-quarantined records.
    samples_lost: int = 0
    #: Residual quarantined-record loss when no crash evidence was given.
    quarantine_only: bool = field(default=False, repr=False)
    #: Cursor frames replayed (metadata; never in :attr:`samples_lost`).
    cursor_records: int = 0
    #: Cursor frames that failed CRC or parse — the rule falls back to a
    #: full evaluation, so these are not data loss either.
    cursor_records_quarantined: int = 0
    #: Latest recovered materialization cursor per key.
    cursors: dict = field(default_factory=dict)


def recover(
    disk: SimDisk,
    directory: str = "wal",
    retention_ns: Optional[int] = None,
    crash_report: Optional[DiskCrashReport] = None,
    plan=None,
    block_policy=None,
) -> Tuple[Tsdb, RecoveryReport]:
    """Rebuild a TSDB from the medium after a crash.

    Loads the newest checkpoint whose checksum verifies, replays every
    segment with a greater sequence number in order, and quarantines
    whatever fails verification — recovery never raises on corrupt data,
    it counts it.  ``crash_report`` (from :meth:`SimDisk.crash`) is the
    loss oracle; ``plan`` (a :class:`~repro.faults.plan.FaultPlan`)
    journals every quarantine decision.  ``block_policy`` re-arms
    compaction on the recovered store (checkpoints carry raw chunks
    only, so rollups rebuild from future compaction passes).
    """
    report = RecoveryReport()

    # -- choose a checkpoint -------------------------------------------
    tsdb = Tsdb(retention_ns=retention_ns, block_policy=block_policy)
    checkpoint_seq = 0
    for name in reversed(disk.list_files(f"{directory}/checkpoint-")):
        seq = _parse_seq(name)
        if seq is None:
            continue
        try:
            restored = archive.restore(disk.read(name))
        except (TsdbError, StorageError):
            report.checkpoints_quarantined += 1
            if plan is not None:
                plan.record("wal-checkpoint-quarantined", name)
            continue
        restored.retention_ns = retention_ns
        restored.block_policy = block_policy
        tsdb = restored
        checkpoint_seq = seq
        report.checkpoint_used = name
        break

    # -- replay segments past it ---------------------------------------
    # Per-recovery interning: a series' label prefix is parsed once.
    interned: Dict[bytes, Labels] = {}
    for name in disk.list_files(f"{directory}/segment-"):
        seq = _parse_seq(name)
        if seq is None or seq <= checkpoint_seq:
            continue
        report.segments_scanned += 1
        data = disk.read(name)
        if len(data) < HEADER_SIZE:
            # A crash right after rotation discards the not-yet-synced
            # header — routine power-loss residue, not corruption.
            if data:
                report.torn_tails += 1
            continue
        if data[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            report.segments_quarantined += 1
            if plan is not None:
                plan.record("wal-segment-quarantined", name)
            continue
        version, header_seq = struct.unpack_from(
            "<HI", data, len(SEGMENT_MAGIC))
        if version != SEGMENT_VERSION or header_seq != seq:
            report.segments_quarantined += 1
            if plan is not None:
                plan.record("wal-segment-quarantined", name)
            continue
        pos = HEADER_SIZE
        while True:
            remaining = len(data) - pos
            if remaining == 0:
                break
            if remaining < 8:
                report.torn_tails += 1
                break
            length, crc = struct.unpack_from("<II", data, pos)
            if not 0 < length <= MAX_RECORD_BYTES:
                # The framing itself is corrupt; nothing past this point
                # can be walked reliably.
                report.segments_quarantined += 1
                if plan is not None:
                    plan.record("wal-segment-quarantined", f"{name}@{pos}")
                break
            if remaining < 8 + length:
                report.torn_tails += 1
                break
            payload = data[pos + 8:pos + 8 + length]
            pos += 8 + length
            is_cursor = bool(payload) and payload[0] == RECORD_CURSOR
            if zlib.crc32(payload) != crc:
                # Classify by the same kind byte the structural loss
                # oracle reads, so quarantined cursors never leak into
                # samples_lost.
                if is_cursor:
                    report.cursor_records_quarantined += 1
                else:
                    report.records_quarantined += 1
                if plan is not None:
                    plan.record("wal-record-quarantined", f"{name}@{pos - 8 - length}")
                continue
            if is_cursor:
                try:
                    key, cursor_ns = decode_cursor_payload(payload)
                except WalError:
                    report.cursor_records_quarantined += 1
                    if plan is not None:
                        plan.record(
                            "wal-record-quarantined", f"{name}@{pos - 8 - length}"
                        )
                    continue
                report.cursor_records += 1
                report.cursors[key] = cursor_ns
                continue
            try:
                labels, time_ns, value = decode_payload(payload, interned)
            except WalError:
                report.records_quarantined += 1
                if plan is not None:
                    plan.record("wal-record-quarantined", f"{name}@{pos - 8 - length}")
                continue
            try:
                tsdb.append(labels, time_ns, value)
            except TsdbError:
                report.records_duplicate += 1
            else:
                report.records_replayed += 1

    # -- exact loss accounting -----------------------------------------
    # Durable-but-corrupt records are lost samples; so is every complete
    # record in the tails the crash discarded (counted structurally from
    # the medium's own report — the chaos layer's loss oracle).
    report.samples_lost = report.records_quarantined
    if crash_report is None:
        report.quarantine_only = True
    else:
        prefix = f"{directory}/segment-"
        for name, tail in crash_report.tails.items():
            if not name.startswith(prefix):
                continue
            written = _count_records(tail.data, tail.offset)
            kept = _count_records(tail.data[:tail.retained], tail.offset)
            report.samples_lost += written - kept
    return tsdb, report


class ShardedWal:
    """One :class:`WalWriter` per storage shard behind a single façade.

    The deployment layer flushes and checkpoints "the WAL" without
    caring how many shards sit underneath; counters are summed over the
    writers so existing ``teemon_wal_*`` telemetry and ``wal_stats()``
    keep their meaning (totals across the deployment).
    """

    def __init__(self, writers: Sequence[WalWriter]) -> None:
        if not writers:
            raise WalError("a sharded WAL needs at least one writer")
        self.writers: List[WalWriter] = list(writers)

    @property
    def shard_count(self) -> int:
        """Number of per-shard writers."""
        return len(self.writers)

    def shard(self, index: int) -> WalWriter:
        """The writer serving one shard."""
        return self.writers[index]

    @property
    def current_segment(self) -> str:
        """Shard 0's live segment (fault-injection hooks poke one shard)."""
        return self.writers[0].current_segment

    @property
    def records_total(self) -> int:
        return sum(w.records_total for w in self.writers)

    @property
    def cursor_records_total(self) -> int:
        return sum(w.cursor_records_total for w in self.writers)

    @property
    def flushes_total(self) -> int:
        return sum(w.flushes_total for w in self.writers)

    @property
    def checkpoints_total(self) -> int:
        return sum(w.checkpoints_total for w in self.writers)

    @property
    def segments_total(self) -> int:
        return sum(w.segments_total for w in self.writers)

    @property
    def unflushed_records(self) -> int:
        return sum(w.unflushed_records for w in self.writers)

    @property
    def unflushed_by_shard(self) -> List[int]:
        """Per-shard unflushed windows — the per-crash loss bound."""
        return [w.unflushed_records for w in self.writers]

    def append_cursor(self, key: str, cursor_ns: int) -> None:
        """Cursor frames live on shard 0 (they are not sample-routed)."""
        self.writers[0].append_cursor(key, cursor_ns)

    def record_cursors(self, cursors: dict) -> None:
        """Seed and persist a cursor map on shard 0."""
        self.writers[0].record_cursors(cursors)

    def flush(self) -> None:
        """Flush every shard's live segment."""
        for writer in self.writers:
            writer.flush()

    def checkpoint(self, engine) -> List[str]:
        """Checkpoint every shard of a sharded engine, in shard order."""
        return [
            writer.checkpoint(engine.shard(index))
            for index, writer in enumerate(self.writers)
        ]


@dataclass
class ShardedRecoveryReport:
    """Per-shard recovery reports plus deployment-wide aggregates.

    Exposes the same numeric attribute names as :class:`RecoveryReport`
    (as summing properties), so the deployment's recovery-statistics
    fold works on either shape.
    """

    shards: List[RecoveryReport] = field(default_factory=list)

    @property
    def checkpoint_used(self) -> Optional[str]:
        """First shard checkpoint used, if any (summary display)."""
        for report in self.shards:
            if report.checkpoint_used is not None:
                return report.checkpoint_used
        return None

    @property
    def checkpoints_quarantined(self) -> int:
        return sum(r.checkpoints_quarantined for r in self.shards)

    @property
    def segments_scanned(self) -> int:
        return sum(r.segments_scanned for r in self.shards)

    @property
    def segments_quarantined(self) -> int:
        return sum(r.segments_quarantined for r in self.shards)

    @property
    def records_replayed(self) -> int:
        return sum(r.records_replayed for r in self.shards)

    @property
    def records_quarantined(self) -> int:
        return sum(r.records_quarantined for r in self.shards)

    @property
    def records_duplicate(self) -> int:
        return sum(r.records_duplicate for r in self.shards)

    @property
    def torn_tails(self) -> int:
        return sum(r.torn_tails for r in self.shards)

    @property
    def samples_lost(self) -> int:
        return sum(r.samples_lost for r in self.shards)

    @property
    def samples_lost_by_shard(self) -> List[int]:
        """Exact loss per shard — what the sharded soak test proves."""
        return [r.samples_lost for r in self.shards]

    @property
    def cursor_records(self) -> int:
        return sum(r.cursor_records for r in self.shards)

    @property
    def cursor_records_quarantined(self) -> int:
        return sum(r.cursor_records_quarantined for r in self.shards)

    @property
    def cursors(self) -> dict:
        """Recovered cursors, newest per key across shards.

        Cursor frames are written to shard 0 only, but merging
        defensively (max per key) keeps the property correct even for
        media written by a different shard layout.
        """
        merged: dict = {}
        for report in self.shards:
            for key, cursor_ns in report.cursors.items():
                if key not in merged or cursor_ns > merged[key]:
                    merged[key] = cursor_ns
        return merged


def recover_sharded(
    disk: SimDisk,
    directory: str,
    shards: int,
    retention_ns: Optional[int] = None,
    crash_report: Optional[DiskCrashReport] = None,
    plan=None,
    block_policy=None,
):
    """Rebuild a sharded engine: one independent :func:`recover` per shard.

    Each shard replays only its own ``{directory}/shard-NN`` segments and
    checkpoints, and the crash report's tails are attributed per shard by
    the same directory-prefix filtering :func:`recover` already does —
    which is what makes ``samples_lost_by_shard`` exact rather than a
    deployment-wide estimate.
    """
    from repro.pmag.storage import ShardedTsdb

    engine = ShardedTsdb(
        shards, retention_ns=retention_ns, block_policy=block_policy
    )
    report = ShardedRecoveryReport()
    for index in range(shards):
        tsdb, shard_report = recover(
            disk,
            directory=shard_directory(directory, index),
            retention_ns=retention_ns,
            crash_report=crash_report,
            plan=plan,
            block_policy=block_policy,
        )
        if isinstance(tsdb, Tsdb):
            engine.adopt_shard(index, tsdb)
        else:
            raise WalError(
                f"shard {index} checkpoint restored a sharded engine; "
                f"per-shard checkpoints must be single-store snapshots"
            )
        report.shards.append(shard_report)
    return engine, report
