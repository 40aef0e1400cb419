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

Record payloads of a version-2 segment, by their leading ``u8 kind``::

    2 cursor   u16 len + utf8 key | i64 cursor_ns
    3 series   u32 ref | u32 label count
               (u16 len + utf8 key | u16 len + utf8 value)*  — sorted by key
    4 samples  u32 n | (u32 ref | i64 time_ns | f64 value) * n

A sample names its series by ``ref``; the series record binding that ref
to a label set is written the first time the writer uses the series *in
that segment*, ahead of the run that needs it.  Every segment is
therefore self-describing: rotation, checkpoint truncation and the loss
of any other segment never leave a ref dangling.  One ``append_many``
call is one samples record (one ``struct.pack``, one CRC) unless a
flush or rotation boundary falls inside it, in which case the batch is
cut there — ``flush_every_records`` and ``segment_max_records`` count
samples, not records.

Version-1 segments (one record per sample, ``u8 kind=1 | u32 label
count | labels | i64 time_ns | f64 value``) are still replayed; nothing
writes them.

Segments and checkpoints draw from one monotonic sequence counter, which
gives a total order over durability events: recovery replays exactly the
segments whose sequence number is greater than the chosen checkpoint's.
Checkpointing orders its writes for crash safety — flush the live
segment, write *and sync* the checkpoint, delete older checkpoints,
rotate to a fresh segment, then delete the segments the checkpoint
subsumes — so at every instant either the old checkpoint plus old
segments or the new checkpoint is durable and complete.

Durability contract: appended samples are durable only after
:meth:`WalWriter.flush` (which ``fsync``\\ s the live segment), so the
maximum loss after a crash is the samples appended since the last flush.
The simulated medium reports exactly what a crash destroyed
(:class:`~repro.simkernel.disk.DiskCrashReport`); :func:`recover` walks
the discarded tails structurally and reports the loss *exactly* in
:attr:`RecoveryReport.samples_lost` — no guessing.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError, TsdbError, WalError
from repro.pmag import archive
from repro.pmag.model import Labels
from repro.pmag.tsdb import StorageEngine, Tsdb
from repro.simkernel.disk import DiskCrashReport, SimDisk

SEGMENT_MAGIC = b"TMWALSEG"
SEGMENT_VERSION = 2
#: The one-record-per-sample layout: read by :func:`recover`, never written.
SEGMENT_VERSION_1 = 1
#: Segment header: magic | u16 version | u32 seq.
HEADER_SIZE = len(SEGMENT_MAGIC) + 6
#: Upper bound on one record's payload; a length field beyond this is
#: treated as corruption of the framing itself (the rest of the segment
#: cannot be walked and is quarantined wholesale).
MAX_RECORD_BYTES = 1 << 20

#: A version-1 sample record (labels inline); version-2 segments have none.
RECORD_SAMPLE_V1 = 1
#: Rule-materialization cursor: ``u8 kind | u16 len + utf8 key | i64 ns``.
#: Cursor frames ride the same segments as samples but are *metadata* —
#: they are excluded from every sample counter (``records_total``,
#: ``unflushed_records``, ``samples_lost``), because losing one costs a
#: full rule re-evaluation, never a sample.
RECORD_CURSOR = 2
#: ``ref -> labels`` for the segment it stands in; metadata like a cursor.
RECORD_SERIES = 3
#: A run of ``(ref, time_ns, value)`` samples.
RECORD_SAMPLES = 4

_FRAME = struct.Struct("<II")
_SERIES_HEAD = struct.Struct("<BII")
_RUN_HEAD = struct.Struct("<BI")
_SAMPLE = struct.Struct("<Iqd")
#: The whole payload of a one-sample run: the many one-sample batches a
#: sharded store hands its shards pay one precompiled pack.
_ONE_SAMPLE = struct.Struct("<BIIqd")
_RUN_HEAD_SIZE, _SAMPLE_SIZE = _RUN_HEAD.size, _SAMPLE.size
#: Samples in the largest run that still fits one record.
MAX_RUN_SAMPLES = (MAX_RECORD_BYTES - _RUN_HEAD_SIZE) // _SAMPLE_SIZE


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"label component too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def pack_labels(labels: Labels) -> bytes:
    """The label block ``(u16-len key | u16-len value)*`` in key order,
    shared by WAL series records and remote-write series blocks."""
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


def _framed(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_series_record(ref: int, labels: Labels) -> bytes:
    """One framed series record binding ``ref`` to ``labels``."""
    payload = (_SERIES_HEAD.pack(RECORD_SERIES, ref, len(labels.items()))
               + pack_labels(labels))
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record payload too large: {len(payload)} bytes")
    return _framed(payload)


def encode_sample_run(flat: Sequence, count: int) -> bytes:
    """One framed samples record from ``count`` samples laid out flat,
    ``[ref, time_ns, value, ref, time_ns, value, ...]``."""
    if count == 1:
        return _framed(_ONE_SAMPLE.pack(RECORD_SAMPLES, 1, *flat))
    if not 0 < count <= MAX_RUN_SAMPLES:
        raise WalError(f"a run holds 1..{MAX_RUN_SAMPLES} samples: {count}")
    return _framed(struct.pack(
        f"<BI{'Iqd' * count}", RECORD_SAMPLES, count, *flat))


def _frame_samples(kind: int, length: int) -> int:
    """Samples a frame of this kind byte and payload length stands for.

    Read off the framing alone, so the crash-loss oracle (which checks
    no CRC) and recovery (which may be looking at a payload whose CRC
    failed) agree on every frame.  Cursor and series frames are metadata;
    anything else is a run — including a kind byte damaged past
    recognition, which is then counted by its length rather than not at
    all.
    """
    if kind == RECORD_CURSOR or kind == RECORD_SERIES:
        return 0
    return max(0, (length - _RUN_HEAD_SIZE) // _SAMPLE_SIZE)


def encode_cursor_record(key: str, cursor_ns: int) -> bytes:
    """One framed materialization-cursor record."""
    return _framed(
        struct.pack("<B", RECORD_CURSOR) + _pack_text(key)
        + struct.pack("<q", cursor_ns))


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
    """Samples in the complete frames of a byte range starting at
    ``file_offset`` of a version-2 segment (the only kind written, so
    the only kind a crash can cut).

    The structural loss oracle: walks length prefixes without checking
    CRCs (a bit-flipped run that never became durable is still lost
    samples) and sums :func:`_frame_samples` — cursor and series frames
    are metadata whose loss destroys no data, so they are invisible to
    loss accounting.  ``file_offset`` is where ``data`` began in the
    segment file: a fresh segment's unsynced tail includes the header,
    which must be skipped before the walk.
    """
    pos = HEADER_SIZE - file_offset if file_offset < HEADER_SIZE else 0
    count = 0
    while len(data) - pos >= 8:
        (length,) = struct.unpack_from("<I", data, pos)
        if not 0 < length <= MAX_RECORD_BYTES:
            break
        if pos + 8 + length > len(data):
            break
        count += _frame_samples(data[pos + 8], length)
        pos += 8 + length
    return count


class WalWriter:
    """Appends ingest records to segment files on a simulated disk.

    Attach to a database with :meth:`Tsdb.attach_wal`; the TSDB calls
    :meth:`append_many` with each batch's accepted samples.
    ``flush_every_records`` bounds the unflushed window by count (0 =
    only explicit flushes); the deployment layer adds time-based flushes
    on the virtual clock.
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
        #: Every series logged here: labels -> [ref, framed series
        #: record, seq of the newest segment holding that record].  A ref
        #: is the series' rank of first use, for the writer's life, so
        #: the record is built once.
        self._series: Dict[Labels, list] = {}
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
    def _learn(self, labels: Labels) -> list:
        """The table entry of a series this writer has not seen."""
        ref = len(self._series)
        entry = self._series[labels] = [
            ref, encode_series_record(ref, labels), 0]
        return entry

    def append(self, labels: Labels, time_ns: int, value: float) -> None:
        """Write one accepted sample: :meth:`append_many` of one."""
        self.append_many([(labels, time_ns, value)])

    def append_many(self, entries: Sequence[Tuple[Labels, int, float]]) -> None:
        """Write a batch of accepted ``(labels, time_ns, value)`` samples.

        Flush and rotation fire at the same sample boundaries however
        the samples are batched; the samples between two boundaries are
        one run: one pack, one CRC, one ``disk.append``.
        """
        total = len(entries)
        series = self._series
        flush_every = self.flush_every_records
        start = 0
        while start < total:
            # Up to the next boundary, whichever it is.
            count = total - start
            room = self.segment_max_records - self._segment_records
            if flush_every and flush_every - self.unflushed_records < room:
                room = flush_every - self.unflushed_records
            if count > room:
                count = room if room > 0 else 1
            if count > MAX_RUN_SAMPLES:
                count = MAX_RUN_SAMPLES
            # One samples record, behind the series records it needs.
            seq = self._seq
            out: List[bytes] = []
            flat: list = []
            try:
                for labels, time_ns, value in (
                        entries if count == total
                        else entries[start:start + count]):
                    entry = series.get(labels)
                    if entry is None:
                        entry = self._learn(labels)
                    if entry[2] != seq:
                        entry[2] = seq
                        out.append(entry[1])
                    flat += (entry[0], time_ns, value)
                out.append(encode_sample_run(flat, count))
            finally:
                # Also on the way out of a failed pack: a series marked
                # as held by this segment must have its record land.
                if out:
                    self.disk.append(self._segment, b"".join(out))
            start += count
            self.records_total += count
            self.unflushed_records += count
            self._segment_records += count
            rotate_due = self._segment_records >= self.segment_max_records
            if rotate_due or (
                    flush_every and self.unflushed_records >= flush_every):
                self.flush()
                if rotate_due:
                    self._open_segment()

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
    #: Samples re-applied to the database.
    records_replayed: int = 0
    #: Samples skipped with their run: CRC mismatch, malformed payload,
    #: or a ref with no surviving series record in its segment.
    records_quarantined: int = 0
    #: Samples rejected as already covered by the checkpoint (idempotent
    #: replay: the out-of-order append check is the deduplicator).
    records_duplicate: int = 0
    #: Segments ending mid-record — the write in flight when power died.
    torn_tails: int = 0
    #: Exact samples destroyed: structurally-counted runs in the
    #: crash-discarded tails plus durable-but-quarantined ones.
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
    #: Series records that failed CRC or parse.  Not loss in themselves:
    #: the runs that named them are, and are counted above.
    series_records_quarantined: int = 0
    #: One report per shard, in shard order, when this report is their
    #: sum (:func:`recover_sharded`); empty for a single log.
    shards: List["RecoveryReport"] = field(default_factory=list, repr=False)

    @property
    def samples_lost_by_shard(self) -> List[int]:
        """Exact loss per shard — what the sharded soak test proves."""
        return [report.samples_lost for report in self.shards]


class _Replay:
    """One recovery's walk over its segments.

    Samples are gathered per series, in log order, across every segment
    replayed, and landed afterwards with one :meth:`Tsdb.append_run` per
    series — same outcome per sample as appending each where it stands,
    since a series' fate never depends on another's.
    """

    def __init__(self, report: "RecoveryReport", plan) -> None:
        self.report = report
        self.plan = plan
        #: ``u32 label count | label block`` -> labels: a series' block
        #: is parsed once however many segments declare it.
        self._interned: Dict[bytes, Labels] = {}
        #: labels -> ``[labels, times, values]``.
        self._columns: Dict[Labels, list] = {}
        #: The same lists in order of first sample, which is the order
        #: appending sample by sample would have created the series in.
        self._order: List[list] = []

    def journal(self, kind: str, where: str) -> None:
        if self.plan is not None:
            self.plan.record(kind, where)

    def _series(self, block: bytes) -> list:
        """The columns of the series described by ``block``."""
        labels = self._interned.get(block)
        if labels is None:
            try:
                (count,) = struct.unpack_from("<I", block, 0)
                labels, end = unpack_labels(block, 4, count)
            except (struct.error, UnicodeDecodeError) as exc:
                raise WalError(f"malformed label block: {exc}") from exc
            if end != len(block):
                raise WalError("trailing bytes after label block")
            self._interned[block] = labels
        columns = self._columns.get(labels)
        if columns is None:
            columns = self._columns[labels] = [labels, array("q"), array("d")]
        return columns

    def _sample(self, columns: list, time_ns: int, value: float) -> None:
        if not columns[1]:
            self._order.append(columns)
        columns[1].append(time_ns)
        columns[2].append(value)

    def _run(self, payload: bytes, refs: Dict[int, list]) -> bool:
        """Gather one intact samples payload; False if it is malformed
        or names a ref this segment never (intactly) declared."""
        body = payload[_RUN_HEAD_SIZE:]
        if not body or _RUN_HEAD.unpack_from(payload)[1] * _SAMPLE_SIZE != len(body):
            return False
        picked = []
        for ref, time_ns, value in _SAMPLE.iter_unpack(body):
            columns = refs.get(ref)
            if columns is None:
                return False  # before anything of the run has landed
            picked.append((columns, time_ns, value))
        order = self._order
        for columns, time_ns, value in picked:
            times = columns[1]
            if not times:
                order.append(columns)
            times.append(time_ns)
            columns[2].append(value)
        return True

    def segment(self, name: str, data: bytes, version: int) -> None:
        """Walk one headered segment, gathering what verifies."""
        report = self.report
        refs: Dict[int, list] = {}
        order = self._order
        runs = version == SEGMENT_VERSION
        # The loop below runs once per record of the log: its constants
        # and callables are bound to locals once.
        frame_at, crc32 = _FRAME.unpack_from, zlib.crc32
        one_sample, one_size = _ONE_SAMPLE.unpack, _ONE_SAMPLE.size
        size = len(data)
        pos = HEADER_SIZE
        while pos < size:
            if size - pos < 8:
                report.torn_tails += 1
                break
            length, crc = frame_at(data, pos)
            if not 0 < length <= MAX_RECORD_BYTES:
                # The framing itself is corrupt; nothing past this point
                # can be walked reliably.
                report.segments_quarantined += 1
                self.journal("wal-segment-quarantined", f"{name}@{pos}")
                break
            start = pos
            pos += 8 + length
            if pos > size:
                report.torn_tails += 1
                break
            payload = data[start + 8:pos]
            # Classify by the same kind byte and framing the structural
            # loss oracle reads, so a frame is the same thing to both
            # whether or not its CRC holds.
            kind = payload[0]
            intact = crc32(payload) == crc
            if intact and runs and kind == RECORD_SAMPLES:
                if length == one_size:
                    # The run of one, the most common record there is.
                    _kind, count, ref, time_ns, value = one_sample(payload)
                    columns = refs.get(ref)
                    if count == 1 and columns is not None:
                        times = columns[1]
                        if not times:
                            order.append(columns)
                        times.append(time_ns)
                        columns[2].append(value)
                        continue
                elif self._run(payload, refs):
                    continue
            if not self._metadata(kind, payload, intact, version, refs):
                self.journal("wal-record-quarantined", f"{name}@{start}")

    def _metadata(self, kind: int, payload: bytes, intact: bool,
                  version: int, refs: Dict[int, list]) -> bool:
        """Everything that is not an intact run of a version-2 segment;
        False if the frame had to be quarantined."""
        report = self.report
        if kind == RECORD_CURSOR:
            try:
                if not intact:
                    raise WalError("cursor CRC mismatch")
                key, cursor_ns = decode_cursor_payload(payload)
            except WalError:
                report.cursor_records_quarantined += 1
                return False
            report.cursor_records += 1
            report.cursors[key] = cursor_ns
        elif version == SEGMENT_VERSION_1:
            # One sample per record, its labels inline.
            try:
                if not intact or kind != RECORD_SAMPLE_V1:
                    raise WalError("not an intact sample record")
                self._sample(
                    self._series(payload[1:-16]),
                    *struct.unpack_from("<qd", payload, len(payload) - 16))
            except (WalError, struct.error):
                report.records_quarantined += 1
                return False
        elif kind == RECORD_SERIES:
            try:
                if not intact:
                    raise WalError("series CRC mismatch")
                (ref,) = struct.unpack_from("<I", payload, 1)
                refs[ref] = self._series(payload[5:])
            except (WalError, struct.error):
                report.series_records_quarantined += 1
                return False
        else:
            # A run that does not verify, or damage that can no longer
            # say what it was: lost samples, counted off the framing.
            report.records_quarantined += _frame_samples(kind, len(payload))
            return False
        return True

    def land(self, tsdb) -> None:
        """Append every gathered series to the store, as runs."""
        for labels, times, values in self._order:
            appended, rejected = tsdb.append_run(labels, times, values)
            self.report.records_replayed += appended
            self.report.records_duplicate += rejected


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
    replay = _Replay(report, plan)
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
        version, header_seq = struct.unpack_from(
            "<HI", data, len(SEGMENT_MAGIC))
        if (data[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC or header_seq != seq
                or version not in (SEGMENT_VERSION, SEGMENT_VERSION_1)):
            report.segments_quarantined += 1
            replay.journal("wal-segment-quarantined", name)
            continue
        replay.segment(name, data, version)
    replay.land(tsdb)

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


def open_log(disk: SimDisk, directory: str, engine: StorageEngine,
             flush_every_records: int):
    """Build and attach the log ``engine``'s layout needs: one
    :class:`WalWriter` in ``directory`` for a single store, a
    :class:`ShardedWal` with one writer per ``shard-NN`` subdirectory
    for a sharded one."""
    if engine.shard_count == 1:
        writer = WalWriter(disk, directory, flush_every_records)
        engine.attach_wal(writer)
        return writer
    writers = [
        WalWriter(disk, shard_directory(directory, index), flush_every_records)
        for index in range(engine.shard_count)
    ]
    engine.attach_wals(writers)
    return ShardedWal(writers)


def _sum_reports(shards: List[RecoveryReport]) -> RecoveryReport:
    """One report for a sharded recovery: every counter summed, the
    first checkpoint used, cursors newest per key (cursor frames are
    written to shard 0 only; merging keeps media written by a different
    shard layout correct)."""
    total = RecoveryReport(shards=shards)
    total.quarantine_only = all(r.quarantine_only for r in shards)
    for report in shards:
        for spec in fields(RecoveryReport):
            value = getattr(report, spec.name)
            if type(value) is int:
                setattr(total, spec.name, getattr(total, spec.name) + value)
        if total.checkpoint_used is None:
            total.checkpoint_used = report.checkpoint_used
        for key, cursor_ns in report.cursors.items():
            if key not in total.cursors or cursor_ns > total.cursors[key]:
                total.cursors[key] = cursor_ns
    return total


def recover_sharded(
    disk: SimDisk,
    directory: str,
    shards: int,
    retention_ns: Optional[int] = None,
    crash_report: Optional[DiskCrashReport] = None,
    plan=None,
    block_policy=None,
) -> Tuple[StorageEngine, RecoveryReport]:
    """Rebuild the engine :func:`open_log` logged for: one independent
    :func:`recover` per shard (``shards=1`` is :func:`recover` itself).

    Each shard replays only its own ``{directory}/shard-NN`` segments and
    checkpoints, and the crash report's tails are attributed per shard by
    the same directory-prefix filtering :func:`recover` already does —
    which is what makes ``samples_lost_by_shard`` exact rather than a
    deployment-wide estimate.
    """
    from repro.pmag.storage import ShardedTsdb

    if shards == 1:
        return recover(
            disk, directory, retention_ns=retention_ns,
            crash_report=crash_report, plan=plan, block_policy=block_policy,
        )
    engine = ShardedTsdb(
        shards, retention_ns=retention_ns, block_policy=block_policy
    )
    reports: List[RecoveryReport] = []
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
        reports.append(shard_report)
    return engine, _sum_reports(reports)
