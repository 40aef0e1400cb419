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
    checkpoint-{seq:08d}.ckpt archive snapshot bytes (version 3: deflated,
                              self-checksummed)

Record payloads of a version-3 segment, by their leading ``u8 kind``,
in the encodings of :mod:`repro.pmag.codec`::

    2 cursor   u16 len + utf8 key | i64 cursor_ns
    3 series   u32 ref | label block
    4 samples  SAMPLE_RUN column run: u32 n | refs u32 * n | times i64 * n
               | values f64 * n

A sample names its series by ``ref``; the series record binding that ref
to a label set is written the first time the writer uses the series *in
that segment*, ahead of the run that needs it.  Every segment is
therefore self-describing: rotation, checkpoint truncation and the loss
of any other segment never leave a ref dangling.  One ``append_many``
call is one samples record (three columns, one CRC) unless a flush or
rotation boundary falls inside it, in which case the batch is cut
there — ``flush_every_records`` and ``segment_max_records`` count
samples, not records.  A sample is 20 bytes of its run, so a run's
sample count is read off its frame length alone.

The store hands the log each commit's accepted samples through
:meth:`WalWriter.commit`.  Inside a *commit group*
(:meth:`WalWriter.open_group` … :meth:`WalWriter.close_group`; the
scraper opens one per cycle) a commit is counted at once but only
staged; the group's samples are written as one ``append_many`` when it
closes, or up to a boundary as soon as a commit reaches one, and a
flush or checkpoint inside the group writes them first.  The medium
then holds what one ``append_many`` of all the group's commits would
have written: same samples, same boundaries, fewer and longer runs.

Version 3 is the only segment layout written or replayed: a segment
whose header names any other version is quarantined like any other bad
header.

With ``storage_shards`` above one the log is split into partitions
(:class:`ShardedWal`), directories ``shard-NN`` laid out as above; a
series is logged in the one :func:`~repro.pmag.storage.shard_for` names,
and :func:`recover_sharded` replays them in order into the one index.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError, TsdbError, WalError
from repro.pmag import archive
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.codec import (
    SAMPLE_RUN, pack_column, pack_labels, pack_text, unpack_labels,
    unpack_run, unpack_text)
from repro.pmag.model import Labels
from repro.pmag.storage import shard_for
from repro.pmag.tsdb import Tsdb
from repro.simkernel.disk import DiskCrashReport, SimDisk

SEGMENT_MAGIC = b"TMWALSEG"
SEGMENT_VERSION = 3
#: Segment header: magic | u16 version | u32 seq.
HEADER_SIZE = len(SEGMENT_MAGIC) + 6
#: Upper bound on one record's payload; a length field beyond this is
#: treated as corruption of the framing itself (the rest of the segment
#: cannot be walked and is quarantined wholesale).
MAX_RECORD_BYTES = 1 << 20

#: Cursor (recording rule or uplink): ``u8 kind | u16 len + utf8 key |
#: i64 ns``.  Cursor frames ride the same segments as samples but are
#: *metadata* — they are excluded from every sample counter
#: (``records_total``, ``unflushed_records``, ``samples_lost``), because
#: losing one costs a rule's outage backfill or an uplink re-ship, never
#: a stored sample.
RECORD_CURSOR = 2
#: ``ref -> labels`` for the segment it stands in; metadata like a cursor.
RECORD_SERIES = 3
#: A run of ``(ref, time_ns, value)`` samples.
RECORD_SAMPLES = 4

_FRAME = struct.Struct("<II")
#: ``u8 kind | u32 ref`` of a series record; ``u8 kind | u32 n`` of a
#: run, and a sample's 20 bytes.
_KIND_REF = struct.Struct("<BI")
_RUN_HEAD_SIZE, _SAMPLE_SIZE = 5, struct.calcsize("<" + SAMPLE_RUN)
#: Samples in the largest run that still fits one record.
MAX_RUN_SAMPLES = (MAX_RECORD_BYTES - _RUN_HEAD_SIZE) // _SAMPLE_SIZE


def _framed(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def encode_series_record(ref: int, labels: Labels) -> bytes:
    """One framed series record binding ``ref`` to ``labels``."""
    payload = _KIND_REF.pack(RECORD_SERIES, ref) + pack_labels(labels)
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record payload too large: {len(payload)} bytes")
    return _framed(payload)


def encode_sample_run(refs: Sequence[int], times: Sequence[int],
                      values: Sequence[float]) -> bytes:
    """One framed samples record from its three columns, of one length."""
    count = len(refs)
    if not 0 < count <= MAX_RUN_SAMPLES:
        raise WalError(f"a run holds 1..{MAX_RUN_SAMPLES} samples: {count}")
    try:
        columns = array("I", refs), array("q", times), array("d", values)
    except (TypeError, OverflowError) as exc:
        raise WalError(f"not a sample run: {exc}") from None
    return _framed(_KIND_REF.pack(RECORD_SAMPLES, count)
                   + b"".join(map(pack_column, columns)))


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
    """One framed cursor record."""
    return _framed(
        bytes((RECORD_CURSOR,)) + pack_text(key) + struct.pack("<q", cursor_ns))


def decode_cursor_payload(payload: bytes) -> Tuple[str, int]:
    """Parse a cursor payload back into (key, cursor_ns)."""
    key, end = unpack_text(payload, 1)
    if payload[0] != RECORD_CURSOR or end + 8 != len(payload):
        raise WalError("malformed cursor payload")
    (cursor_ns,) = struct.unpack_from("<q", payload, end)
    return key, cursor_ns


def segment_name(directory: str, seq: int) -> str:
    """Canonical segment file name for a sequence number."""
    return f"{directory}/segment-{seq:08d}.wal"


def shard_directory(directory: str, index: int) -> str:
    """One WAL partition's directory under one base directory."""
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
    ``file_offset`` of a version-3 segment (the only kind written, so
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
    :meth:`commit` with each batch's accepted samples.
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
        #: Samples written to the medium, and of them since the last flush.
        self._written = 0
        self._unflushed = 0
        self.cursor_records_total = 0
        self.flushes_total = 0
        self.checkpoints_total = 0
        self.segments_total = 0
        self._segment_records = 0
        #: The open commit group's samples, counted but not yet written;
        #: None while no group is open.
        self._staged: Optional[list] = None
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

    @property
    def records_total(self) -> int:
        """Samples committed to this log, staged ones included."""
        return self._written + len(self._staged or ())

    @property
    def unflushed_records(self) -> int:
        """Samples committed since the last flush: what a crash takes."""
        return self._unflushed + len(self._staged or ())

    @property
    def group_open(self) -> bool:
        """Whether a commit group is open."""
        return self._staged is not None

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

    def open_group(self) -> None:
        """Start a commit group: :meth:`commit` stages until it closes."""
        if self._staged is not None:
            raise WalError("a commit group is already open")
        self._staged = []

    def close_group(self) -> None:
        """End the commit group, writing what it staged."""
        try:
            self._write_staged()
        finally:
            self._staged = None

    def _write_staged(self) -> None:
        staged = self._staged
        if staged:
            self._staged = []
            self.append_many(staged)

    def commit(self, entries: Sequence[Tuple[Labels, int, float]]) -> None:
        """One store commit's accepted samples.

        Without an open group, :meth:`append_many`.  Inside one they are
        counted now and staged; a commit that reaches the next flush or
        rotation boundary writes the staged samples up to it, so the
        boundaries fall on the same samples as without the group.
        """
        staged = self._staged
        if staged is None:
            self.append_many(entries)
            return
        flush_every = self.flush_every_records
        while entries:
            room = self.segment_max_records - self._segment_records
            if flush_every and flush_every - self._unflushed < room:
                room = flush_every - self._unflushed
            room -= len(staged)
            if len(entries) < room:
                staged += entries
                return
            cut = room if room > 0 else 1
            self._staged = []
            self.append_many(staged + list(entries[:cut]))
            staged = self._staged
            entries = entries[cut:]

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
            if flush_every and flush_every - self._unflushed < room:
                room = flush_every - self._unflushed
            if count > room:
                count = room if room > 0 else 1
            if count > MAX_RUN_SAMPLES:
                count = MAX_RUN_SAMPLES
            # One samples record, behind the series records it needs.
            seq = self._seq
            out: List[bytes] = []
            series_column, times, values = zip(*(
                entries if count == total else entries[start:start + count]))
            refs: List[int] = []
            try:
                for labels in series_column:
                    entry = series.get(labels)
                    if entry is None:
                        entry = self._learn(labels)
                    if entry[2] != seq:
                        entry[2] = seq
                        out.append(entry[1])
                    refs.append(entry[0])
                out.append(encode_sample_run(refs, times, values))
            finally:
                # Also on the way out of a failed pack: a series marked
                # as held by this segment must have its record land.
                if out:
                    self.disk.append(self._segment, b"".join(out))
            start += count
            self._written += count
            self._unflushed += count
            self._segment_records += count
            rotate_due = self._segment_records >= self.segment_max_records
            if rotate_due or (
                    flush_every and self._unflushed >= flush_every):
                self.flush()
                if rotate_due:
                    self._open_segment()

    def append_cursor(self, key: str, cursor_ns: int) -> None:
        """Write one cursor frame to the live segment.

        Cursor frames are excluded from the sample counters and never
        trigger a flush on their own: a cursor becomes durable with the
        next flush, and a rule cursor lost to a crash only means the
        outage is not backfilled — no stored data is at stake.  The open
        group's staged samples are written first, keeping log order.
        """
        self._write_staged()
        self.disk.append(self._segment, encode_cursor_record(key, cursor_ns))
        self._cursors[key] = cursor_ns
        self.cursor_records_total += 1
        self._segment_records += 1

    def record_cursors(self, cursors: dict) -> None:
        """Seed and persist a cursor map (post-recovery re-arming)."""
        for key in sorted(cursors):
            self.append_cursor(key, cursors[key])

    def flush(self) -> None:
        """Make everything committed so far durable (``fsync``); the
        open group's staged samples are written first."""
        self._write_staged()
        self._unflushed = 0
        if self.disk.synced_size(self._segment) == self.disk.size(self._segment):
            return
        self.disk.sync(self._segment)
        self.flushes_total += 1

    def checkpoint(self, tsdb: Tsdb) -> str:
        """Serialise ``tsdb`` (or anything with the ``series_items`` of
        :func:`archive.snapshot`), then truncate the segments it
        subsumes.

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
    #: Segments whose header was bad (magic, sequence number, or a
    #: version other than 3) or whose framing was unwalkably corrupt.
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
    #: Cursor frames that failed CRC or parse — the rule skips its
    #: outage backfill, so these are not data loss either.
    cursor_records_quarantined: int = 0
    #: Latest recovered cursor per key.
    cursors: dict = field(default_factory=dict)
    #: Series records that failed CRC or parse.  Not loss in themselves:
    #: the runs that named them are, and are counted above.
    series_records_quarantined: int = 0
    #: One report per WAL partition, in partition order, when this
    #: report is their sum (:func:`recover_sharded`); empty for a single
    #: log.
    shards: List["RecoveryReport"] = field(default_factory=list, repr=False)

    @property
    def samples_lost_by_shard(self) -> List[int]:
        """Exact loss per partition — what the partitioned soak test
        proves."""
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
        #: Label block -> labels: a series' block is parsed once however
        #: many segments declare it.
        self._interned: Dict[bytes, Labels] = {}
        #: labels -> ``[labels, times, values]``.
        self._columns: Dict[Labels, list] = {}
        #: The same lists in order of first sample, which is the order
        #: appending sample by sample would have created the series in.
        self.order: List[list] = []

    def journal(self, kind: str, where: str) -> None:
        if self.plan is not None:
            self.plan.record(kind, where)

    def _series(self, block: bytes) -> list:
        """The columns of the series whose label block is ``block``."""
        labels = self._interned.get(block)
        if labels is None:
            labels, end = unpack_labels(block, 0)
            if end != len(block):
                raise WalError("trailing bytes after label block")
            self._interned[block] = labels
        columns = self._columns.get(labels)
        if columns is None:
            columns = self._columns[labels] = [labels, array("q"), array("d")]
        return columns

    def _run(self, payload: bytes, refs: Dict[int, list]) -> bool:
        """Gather one intact samples payload; False if it is malformed
        or names a ref this segment never (intactly) declared."""
        try:
            ref_column, times, values = unpack_run(SAMPLE_RUN, payload, 1)
        except WalError:
            return False
        picked = list(map(refs.get, ref_column))
        if not picked or None in picked:
            return False  # before anything of the run has landed
        order = self.order
        for columns, time_ns, value in zip(picked, times, values):
            column = columns[1]
            if not column:
                order.append(columns)
            column.append(time_ns)
            columns[2].append(value)
        return True

    def segment(self, name: str, data: bytes) -> None:
        """Walk one headered segment, gathering what verifies."""
        report = self.report
        refs: Dict[int, list] = {}
        # The loop below runs once per record of the log: its constants
        # and callables are bound to locals once.
        frame_at, crc32 = _FRAME.unpack_from, zlib.crc32
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
            if intact and kind == RECORD_SAMPLES and self._run(payload, refs):
                continue
            if not self._metadata(kind, payload, intact, refs):
                self.journal("wal-record-quarantined", f"{name}@{start}")

    def _metadata(self, kind: int, payload: bytes, intact: bool,
                  refs: Dict[int, list]) -> bool:
        """Everything that is not an intact run; False if the frame had
        to be quarantined."""
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
        elif kind == RECORD_SERIES:
            try:
                if not intact:
                    raise WalError("series CRC mismatch")
                refs[_KIND_REF.unpack_from(payload)[1]] = self._series(
                    payload[_KIND_REF.size:])
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
        for labels, times, values in self.order:
            appended, rejected = tsdb.append_run(labels, times, values)
            self.report.records_replayed += appended
            self.report.records_duplicate += rejected


def recover(
    disk: SimDisk,
    directory: str = "wal",
    retention_ns: Optional[int] = None,
    crash_report: Optional[DiskCrashReport] = None,
    plan=None,
    into: Optional[Tsdb] = None,
    check: Optional[Callable[[Labels], None]] = None,
) -> Tuple[Tsdb, RecoveryReport]:
    """Rebuild a TSDB from the medium after a crash.

    Loads the newest checkpoint whose checksum verifies, replays every
    segment with a greater sequence number in order, and quarantines
    whatever fails verification — recovery never raises on corrupt data,
    it counts it.  ``crash_report`` (from :meth:`SimDisk.crash`) is the
    loss oracle; ``plan`` (a :class:`~repro.faults.plan.FaultPlan`)
    journals every quarantine decision.

    The samples land in ``into`` (default: a fresh store).  A checkpoint
    is decoded whole before any of it lands, so one that fails part-way
    leaves the store untouched and the next older one is tried.
    ``check`` sees every series found before anything lands; it may raise.
    """
    tsdb = Tsdb(retention_ns=retention_ns) if into is None else into
    report = RecoveryReport()

    # -- choose a checkpoint -------------------------------------------
    restored: Dict[Labels, ChunkedSeries] = {}
    checkpoint_seq = 0
    for name in reversed(disk.list_files(f"{directory}/checkpoint-")):
        seq = _parse_seq(name)
        if seq is None:
            continue
        try:
            restored = archive.decode(disk.read(name))
        except (TsdbError, StorageError):
            report.checkpoints_quarantined += 1
            if plan is not None:
                plan.record("wal-checkpoint-quarantined", name)
            continue
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
                or version != SEGMENT_VERSION):
            report.segments_quarantined += 1
            replay.journal("wal-segment-quarantined", name)
            continue
        replay.segment(name, data)

    # -- land both in the store ----------------------------------------
    if check is not None:
        for labels in restored:
            check(labels)
        for columns in replay.order:
            check(columns[0])
    for labels, storage in restored.items():
        tsdb.install_series(labels, storage)
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


class PartitionMap(dict):
    """Label set -> WAL partition (:func:`~repro.pmag.storage.shard_for`
    over ``count``), filled on first use.  Entries never go stale: the
    map grows with the distinct label sets seen, like the index."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        super().__init__()
        self.count = count

    def __missing__(self, labels: Labels) -> int:
        index = self[labels] = shard_for(labels, self.count)
        return index


class _Partition(list):
    """One partition's ``(labels, series)`` pairs in index order: what
    its checkpoint snapshots."""

    series_items = list.__iter__


def _summed(name: str) -> property:
    """A counter summed over a partitioned log's writers."""
    return property(lambda self: sum(
        getattr(writer, name) for writer in self.writers))


class ShardedWal:
    """One :class:`WalWriter` per partition behind a single façade.

    The store commits through :meth:`commit` as through one writer;
    each entry goes to its series' partition (``routes``).  The
    deployment flushes and checkpoints "the WAL" without caring how many
    partitions sit underneath; counters are summed over the writers so
    ``teemon_wal_*`` telemetry and ``wal_stats()`` keep their meaning
    (totals across the deployment).
    """

    def __init__(self, writers: Sequence[WalWriter],
                 routes: PartitionMap) -> None:
        #: One writer per partition ``routes`` names, in partition order.
        self.writers: List[WalWriter] = list(writers)
        self.routes = routes

    records_total = _summed("records_total")
    flushes_total = _summed("flushes_total")
    checkpoints_total = _summed("checkpoints_total")
    segments_total = _summed("segments_total")
    unflushed_records = _summed("unflushed_records")

    @property
    def group_open(self) -> bool:
        """Whether a commit group is open."""
        return self.writers[0].group_open

    def open_group(self) -> None:
        """Open a commit group on every partition."""
        for writer in self.writers:
            writer.open_group()

    def close_group(self) -> None:
        """Close every partition's group: one write per partition."""
        for writer in self.writers:
            writer.close_group()

    def commit(self, entries: Sequence[Tuple[Labels, int, float]]) -> None:
        """Split one commit's accepted samples by partition, keeping
        their order within each, and hand every non-empty part to its
        writer, in partition order."""
        routes = self.routes
        parts: List[list] = [[] for _ in self.writers]
        for entry in entries:
            parts[routes[entry[0]]].append(entry)
        for writer, part in zip(self.writers, parts):
            if part:
                writer.commit(part)

    def append_cursor(self, key: str, cursor_ns: int) -> None:
        """Cursor frames live in partition 0 (they are not sample-routed)."""
        self.writers[0].append_cursor(key, cursor_ns)

    def record_cursors(self, cursors: dict) -> None:
        """Seed and persist a cursor map in partition 0."""
        self.writers[0].record_cursors(cursors)

    def flush(self) -> None:
        """Flush every partition's live segment."""
        for writer in self.writers:
            writer.flush()

    def checkpoint(self, tsdb: Tsdb) -> List[str]:
        """Checkpoint every partition's series of ``tsdb``, in partition
        order, after one pass that groups the index by partition."""
        routes = self.routes
        parts = [_Partition() for _ in self.writers]
        for item in tsdb.series_items():
            parts[routes[item[0]]].append(item)
        return [writer.checkpoint(part)
                for writer, part in zip(self.writers, parts)]


def open_log(disk: SimDisk, directory: str, routes: PartitionMap,
             flush_every_records: int):
    """The log a store writes through, over ``routes.count`` partitions:
    one :class:`WalWriter` in ``directory`` for one, a
    :class:`ShardedWal` with one writer per ``shard-NN`` subdirectory
    for more."""
    if routes.count == 1:
        return WalWriter(disk, directory, flush_every_records)
    return ShardedWal([
        WalWriter(disk, shard_directory(directory, index), flush_every_records)
        for index in range(routes.count)
    ], routes)


def _sum_reports(shards: List[RecoveryReport]) -> RecoveryReport:
    """One report for a partitioned recovery: every counter summed, the
    first checkpoint used, cursors newest per key (cursor frames are
    written to partition 0 only; merging keeps media written by a
    different partition layout correct)."""
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
) -> Tuple[Tsdb, RecoveryReport]:
    """Rebuild the store :func:`open_log` logged for over ``shards``
    partitions (``shards=1`` is :func:`recover` itself).

    Each partition, in order, restores its own ``{directory}/shard-NN``
    checkpoint and replays its own segments into the one store.  The
    crash report's tails are attributed per partition by directory
    prefix, which is what makes ``samples_lost_by_shard`` exact rather
    than a deployment-wide estimate.  A series found in a partition it
    does not route to raises :class:`TsdbError`: the log was written
    with a different partition count, and appends would go astray.
    """
    if shards == 1:
        return recover(
            disk, directory, retention_ns=retention_ns,
            crash_report=crash_report, plan=plan,
        )
    tsdb = Tsdb(retention_ns=retention_ns)
    routes = PartitionMap(shards)
    reports: List[RecoveryReport] = []
    for index in range(shards):
        def check(labels: Labels, index: int = index) -> None:
            if routes[labels] != index:
                raise TsdbError(
                    f"series {labels!r} routes to shard {routes[labels]}, "
                    f"not {index}: was this log written with a different "
                    f"shard count?")

        reports.append(recover(
            disk, shard_directory(directory, index),
            crash_report=crash_report, plan=plan, into=tsdb, check=check)[1])
    return tsdb, _sum_reports(reports)
