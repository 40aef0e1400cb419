"""Reference codecs: the version-1 WAL writer (one record per sample,
labels inline) that production neither writes nor replays any more,
kept verbatim as ``bench_wal``'s control and as the maker of segments
recovery must quarantine; a from-scratch model of the version-3 log
(series records + column runs): writer, reader and loss count, plus the
interleaved version-2 run recovery must quarantine too; the
remote-write rw/6 sender (its ref numbering kept in a plain dict) and a
decoder to match, plus the
byte-level helpers the damage tests use to put a tampered frame
together;
the list-based chunk and archive-body encoders the typed-column ones
must match byte for byte (the body as version 2 stored it raw and
version 3 deflates it); and an exposition encoder that remembers
nothing between scrapes.

Nothing here calls the codecs under test — only their format constants
and ``series_fingerprint`` — so a bug in the production label packer
or column codec cannot hide in its own oracle: every cell is packed and
read one ``struct`` call at a time.
"""

import base64
import struct
import zlib

from hypothesis import strategies as st

from repro.errors import WalError
from repro.pmag.model import Labels
from repro.pmag.remote_write import FRAME_MAGIC
from repro.pmag.storage import series_fingerprint
from repro.pmag.wal import (
    HEADER_SIZE,
    MAX_RECORD_BYTES,
    RECORD_CURSOR,
    RECORD_SAMPLES,
    RECORD_SERIES,
    SEGMENT_MAGIC,
)


#: Label sets chosen to collide wherever a memo keyed or compared too
#: loosely would: values that are prefixes of one another, empty values,
#: a value moved into the next key, non-ASCII, no labels at all.
SERIES_POOL = [
    Labels({"__name__": "m", "job": "a"}),
    Labels({"__name__": "m", "job": "ab"}),
    Labels({"__name__": "m", "job": ""}),
    Labels({"__name__": "m", "job": "a", "zone": ""}),
    Labels({"__name__": "m", "job": "", "zone": "a"}),
    Labels({"__name__": "mé", "jöb": "ü", "zone": "日本"}),
    Labels({"__name__": "m"}),
    Labels({}),
]
label_sets = st.one_of(
    st.sampled_from(SERIES_POOL),
    st.dictionaries(st.text(max_size=5), st.text(max_size=5),
                    max_size=4).map(Labels),
)
#: (labels, time_ns, value) triples over few series, so one series
#: recurring — a memo hit, a multi-sample block — is the common case.
wire_entries = st.tuples(
    label_sets, st.integers(-2**63, 2**63 - 1), st.floats(allow_nan=False))


def _pack_text(text):
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"label component too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def reference_label_bytes(pairs):
    """``(u16-len key | u16-len value)*`` for pairs in the order given."""
    return b"".join(_pack_text(key) + _pack_text(val) for key, val in pairs)


# ----------------------------------------------------------------------
# WAL version 1, as production wrote it
# ----------------------------------------------------------------------
#: A version-1 sample record's kind byte (labels inline).
RECORD_SAMPLE_V1 = 1


def encode_record(labels, time_ns, value, memo=None):
    """One framed version-1 sample record (length prefix + CRC32 +
    payload).  ``memo`` (label set -> payload prefix and its CRC) makes
    all but the trailing time+value a once-per-series cost."""
    entry = memo.get(labels) if memo is not None else None
    if entry is None:
        prefix = (struct.pack("<BI", RECORD_SAMPLE_V1, len(labels.items()))
                  + reference_label_bytes(labels.items()))
        if len(prefix) + 16 > MAX_RECORD_BYTES:
            raise WalError(f"record payload too large: {len(prefix) + 16} bytes")
        entry = (prefix, zlib.crc32(prefix))
        if memo is not None:
            memo[labels] = entry
    prefix, prefix_crc = entry
    tail = struct.pack("<qd", time_ns, value)
    return struct.pack(
        "<II", len(prefix) + 16, zlib.crc32(tail, prefix_crc)) + prefix + tail


def reference_labels(buf, offset, count):
    """``count`` label pairs at ``offset``: ``(Labels, end offset)``;
    :class:`WalError` unless the keys are strictly ascending and the
    text is all there."""
    mapping, previous = {}, None
    try:
        for _ in range(count):
            parts = []
            for _part in range(2):
                (length,) = struct.unpack_from("<H", buf, offset)
                if offset + 2 + length > len(buf):
                    raise WalError("truncated label text")
                parts.append(buf[offset + 2:offset + 2 + length].decode("utf-8"))
                offset += 2 + length
            key, value = parts
            if previous is not None and key <= previous:
                raise WalError(f"label keys not strictly ascending at {key!r}")
            mapping[key] = value
            previous = key
    except (struct.error, UnicodeDecodeError) as exc:
        raise WalError(f"malformed label block: {exc}") from exc
    return Labels(mapping), offset


def reference_cursor_record(key, cursor_ns):
    """One framed cursor record (the same in both segment versions)."""
    payload = (struct.pack("<B", RECORD_CURSOR) + _pack_text(key)
               + struct.pack("<q", cursor_ns))
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class WalWriterV1:
    """The version-1 sample write path as it stood in ``WalWriter``:
    one memoised record per sample, count-based flushes and rotation.
    Writes segments recovery must quarantine and is ``bench_wal``'s
    control."""

    VERSION = 1

    def __init__(self, disk, directory="wal", flush_every_records=0,
                 segment_max_records=4096):
        self.disk = disk
        self.directory = directory
        self.flush_every_records = flush_every_records
        self.segment_max_records = segment_max_records
        self.records_total = 0
        self.flushes_total = 0
        self.unflushed_records = 0
        self._segment_records = 0
        self._record_memo = {}
        self._seq = 0
        self._open_segment()

    def _open_segment(self):
        self._seq += 1
        self._segment = f"{self.directory}/segment-{self._seq:08d}.wal"
        self.disk.append(self._segment, SEGMENT_MAGIC + struct.pack(
            "<HI", self.VERSION, self._seq))
        self._segment_records = 0

    @property
    def current_segment(self):
        return self._segment

    def append(self, labels, time_ns, value):
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

    def append_many(self, entries):
        pending = []
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

    def append_cursor(self, key, cursor_ns):
        self.disk.append(self._segment, reference_cursor_record(key, cursor_ns))
        self._segment_records += 1

    def flush(self):
        if self.disk.synced_size(self._segment) == self.disk.size(self._segment):
            self.unflushed_records = 0
            return
        self.disk.sync(self._segment)
        self.unflushed_records = 0
        self.flushes_total += 1


# ----------------------------------------------------------------------
# WAL version 3: a model that shares nothing with the writer under test
# ----------------------------------------------------------------------
def _frame(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def reference_series_record(ref, pairs, label_count=None):
    """One framed series record; ``pairs`` written in the order given
    and ``label_count`` as given, for damage tests."""
    count = len(pairs) if label_count is None else label_count
    return _frame(struct.pack("<BII", RECORD_SERIES, ref, count)
                  + reference_label_bytes(pairs))


def reference_columns(samples, formats):
    """``samples`` (tuples of cells) as whole columns, one ``struct``
    call per cell: every first cell, then every second, ..."""
    return b"".join(
        struct.pack("<" + fmt, sample[index])
        for index, fmt in enumerate(formats) for sample in samples)


def reference_sample_run(samples, count=None):
    """One framed version-3 samples record from ``[(ref, time_ns,
    value)]``: ``u32 n`` then the ref, time and value columns; ``count``
    overrides the stated length."""
    stated = len(samples) if count is None else count
    return _frame(struct.pack("<BI", RECORD_SAMPLES, stated)
                  + reference_columns(samples, "Iqd"))


def reference_sample_run_v2(samples):
    """One framed version-2 samples record: the same samples interleaved,
    ``(ref, time_ns, value)`` after ``(ref, time_ns, value)``."""
    return _frame(
        struct.pack("<BI", RECORD_SAMPLES, len(samples))
        + b"".join(struct.pack("<Iqd", *sample) for sample in samples))


class ReferenceLogV3:
    """What a version-3 writer must leave on the medium, computed one
    sample at a time: ``segments[i]`` is segment ``i + 1``'s bytes and
    ``durable[i]`` how many of them a flush has covered.

    Rules modelled: a series gets the next unused ref the first time the
    writer sees it and a series record the first time each segment does,
    just ahead of the run that needs it; one ``append_many`` call is one
    run, cut wherever a count-based flush or a rotation falls; cursor
    frames count towards rotation but never trigger it.
    """

    def __init__(self, flush_every_records=0, segment_max_records=4096):
        self.flush_every = flush_every_records
        self.segment_max = segment_max_records
        self.segments = []
        self.durable = []
        self.refs = {}
        self.samples = 0
        self.unflushed = 0
        self._open()

    def _open(self):
        self.segments.append(bytearray(
            SEGMENT_MAGIC + struct.pack("<HI", 3, len(self.segments) + 1)))
        self.durable.append(0)
        self.declared = set()
        self.in_segment = 0

    def flush(self):
        self.durable[-1] = len(self.segments[-1])
        self.unflushed = 0

    def append_many(self, entries):
        series, run = [], []

        def emit():
            if run:
                self.segments[-1] += b"".join(series) + reference_sample_run(run)
                series.clear()
                run.clear()

        for labels, time_ns, value in entries:
            ref = self.refs.setdefault(labels, len(self.refs))
            if ref not in self.declared:
                self.declared.add(ref)
                series.append(reference_series_record(ref, labels.items()))
            run.append((ref, time_ns, value))
            self.samples += 1
            self.unflushed += 1
            self.in_segment += 1
            rotate = self.in_segment >= self.segment_max
            if rotate or (self.flush_every
                          and self.unflushed >= self.flush_every):
                emit()
                self.flush()
                if rotate:
                    self._open()
        emit()

    def append(self, labels, time_ns, value):
        self.append_many([(labels, time_ns, value)])

    def append_cursor(self, key, cursor_ns):
        self.segments[-1] += reference_cursor_record(key, cursor_ns)
        self.in_segment += 1


def _frame_sample_count(kind, length):
    """Samples a frame stands for, by its kind byte and payload length
    alone: metadata frames none, anything else as many 20-byte samples
    as fit behind a 5-byte run head."""
    if kind in (RECORD_CURSOR, RECORD_SERIES):
        return 0
    return max(0, (length - 5) // 20)


def reference_count_samples(data, file_offset=0):
    """Samples in the whole frames of a byte range that began at
    ``file_offset`` of a version-3 segment — no CRC looked at."""
    pos = max(0, HEADER_SIZE - file_offset)
    total = 0
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from("<I", data, pos)
        if not 0 < length <= MAX_RECORD_BYTES or pos + 8 + length > len(data):
            break
        total += _frame_sample_count(data[pos + 8], length)
        pos += 8 + length
    return total


def reference_crash_loss(crash_report, prefix="wal/segment-"):
    """Samples one :class:`DiskCrashReport` says a crash destroyed."""
    return sum(
        reference_count_samples(tail.data, tail.offset)
        - reference_count_samples(tail.data[:tail.retained], tail.offset)
        for name, tail in crash_report.tails.items()
        if name.startswith(prefix)
    )


def segment_frames(data):
    """``(offset, payload, intact)`` of each whole frame behind a
    segment header, up to where the framing stops making sense."""
    pos = HEADER_SIZE
    while pos + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, pos)
        if not 0 < length <= MAX_RECORD_BYTES or pos + 8 + length > len(data):
            return
        payload = bytes(data[pos + 8:pos + 8 + length])
        yield pos, payload, zlib.crc32(payload) == crc
        pos += 8 + length


def _read_cursor(payload, cursors):
    if len(payload) >= 11:
        (size,) = struct.unpack_from("<H", payload, 1)
        if 3 + size + 8 == len(payload):
            try:
                key = payload[3:3 + size].decode("utf-8")
            except UnicodeDecodeError:
                return
            (cursors[key],) = struct.unpack_from("<q", payload, 3 + size)


def reference_replay_v3(data):
    """Read one version-3 segment the slow way.

    Returns ``(samples, cursors, lost)``: the ``(labels, time_ns,
    value)`` triples of every run that verifies, in log order; the
    cursor frames that verify; and the samples in runs that do not (bad
    CRC, malformed, or naming a ref with no intact series record before
    it in this segment).  Stops where the framing stops.
    """
    samples, cursors, lost = [], {}, 0
    refs = {}
    for _offset, payload, intact in segment_frames(data):
        kind, length = payload[0], len(payload)
        if kind == RECORD_CURSOR:
            if intact:
                _read_cursor(payload, cursors)
        elif kind == RECORD_SERIES:
            if intact and length >= 9:
                ref, count = struct.unpack_from("<II", payload, 1)
                try:
                    labels, end = reference_labels(payload, 9, count)
                except WalError:
                    continue
                if end == length:
                    refs[ref] = labels
        else:
            run = []
            if intact and kind == RECORD_SAMPLES and length > 5:
                (count,) = struct.unpack_from("<I", payload, 1)
                if 5 + 20 * count == length:
                    for index in range(count):
                        (ref,) = struct.unpack_from(
                            "<I", payload, 5 + 4 * index)
                        (time_ns,) = struct.unpack_from(
                            "<q", payload, 5 + 4 * count + 8 * index)
                        (value,) = struct.unpack_from(
                            "<d", payload, 5 + 12 * count + 8 * index)
                        if ref not in refs:
                            run = []
                            break
                        run.append((refs[ref], time_ns, value))
            if run:
                samples += run
            else:
                lost += _frame_sample_count(kind, length)
    return samples, cursors, lost


# ----------------------------------------------------------------------
# Remote-write rw/6 frames
# ----------------------------------------------------------------------
class Refused(Exception):
    """The reference decoder's refusal: a frame whose definitions start
    past the refs the receiving table holds."""


def reference_definition(fingerprint, pairs, label_count=None):
    """One rw/6 definition from explicit parts: ``u32 fingerprint`` and
    the label block.

    ``pairs`` are written in the order given and ``fingerprint`` /
    ``label_count`` as given, so damage tests can build non-canonical or
    mis-stamped definitions a real encoder never would.
    """
    count = len(pairs) if label_count is None else label_count
    return struct.pack("<II", fingerprint, count) + reference_label_bytes(pairs)


def reference_frame_rest(definitions, samples, first=0, defined_count=None,
                         sample_count=None):
    """What an rw/6 payload's CRC covers: ``u32 first``, ``u32 D``, the
    ``definitions`` (bytes) of refs ``first``…, ``u32 n`` and the ref,
    time and value columns of ``samples`` (``(ref, time_ns, value)``);
    ``defined_count`` and ``sample_count`` override ``D`` and ``n``."""
    size = len(definitions) if defined_count is None else defined_count
    stated = len(samples) if sample_count is None else sample_count
    return (struct.pack("<II", first, size) + b"".join(definitions)
            + struct.pack("<I", stated) + reference_columns(samples, "Iqd"))


def frame_from_rest(sender, epoch, seq, count, rest):
    """An rw/6 frame whose payload is ``rest`` behind its valid CRC."""
    return frame_from_payload(
        sender, epoch, seq, count, struct.pack("<I", zlib.crc32(rest)) + rest)


def frame_from_payload(sender, epoch, seq, count, payload,
                       magic=FRAME_MAGIC):
    """A frame around an arbitrary (possibly damaged) payload."""
    body = base64.b64encode(zlib.compress(payload, 1)).decode("ascii")
    return f"{magic} {sender} {epoch} {seq} {count}\n{body}"


def frame_payload(text):
    """The decompressed payload of a frame."""
    return zlib.decompress(base64.b64decode(text.split("\n", 1)[1]))


class ReferenceSender:
    """The sending side of rw/6 for one epoch and one receiver, from
    scratch: a ref per series in order of first sight, and the count of
    refs the receiver confirmed.  Every frame defines each unconfirmed
    ref; an ack confirms them all, a refusal none."""

    def __init__(self):
        self.refs = {}
        self.confirmed = 0

    def parts(self, entries):
        """``(first, definitions, samples)`` of the next frame for
        ``entries``, each sample as ``(ref, time_ns, value)``."""
        numbered = dict(self.refs)
        for labels, _time_ns, _value in entries:
            numbered.setdefault(labels, len(numbered))
        order = sorted(numbered, key=numbered.__getitem__)
        definitions = [
            reference_definition(series_fingerprint(labels), labels.items())
            for labels in order[self.confirmed:]]
        self.refs = numbered  # only once every definition packed
        return self.confirmed, definitions, [
            (numbered[labels], time_ns, value)
            for labels, time_ns, value in entries]

    def encode(self, sender, epoch, seq, entries):
        if not sender or any(c in sender for c in " \n"):
            raise WalError(f"sender not wire-safe: {sender!r}")
        first, definitions, samples = self.parts(entries)
        return frame_from_rest(sender, epoch, seq, len(entries),
                               reference_frame_rest(definitions, samples,
                                                    first))

    def ack(self):
        self.confirmed = len(self.refs)

    def refused(self):
        self.confirmed = 0


def reference_encode_frame(sender, epoch, seq, entries):
    """The rw/6 frame for ``entries`` that stands alone: refs in order
    of first appearance, every one defined, samples in the order
    given."""
    return ReferenceSender().encode(sender, epoch, seq, entries)


def reference_frame_parts(entries):
    """``(definitions, samples)`` of the stand-alone frame for
    ``entries``."""
    _first, definitions, samples = ReferenceSender().parts(entries)
    return definitions, samples


def reference_decode_frame(text, known=None):
    """Read an rw/6 frame one ``struct`` call at a time against
    ``known``, the receiving table (ref -> labels; empty if None):
    ``(sender, epoch, seq, [(labels, time_ns, value)])`` in shipped
    order, with the frame's definitions appended to ``known``.  Raises
    :class:`Refused` when the definitions start past ``known``, and
    :class:`WalError`, leaving ``known`` as it was, for anything the
    format does not allow."""
    known = [] if known is None else known
    header, _sep, body = text.partition("\n")
    pieces = header.split()
    if len(pieces) != 5 or pieces[0] != FRAME_MAGIC or "\n" not in text:
        raise WalError(f"not an rw/6 frame header: {header!r}")
    try:
        epoch, seq, count = int(pieces[2]), int(pieces[3]), int(pieces[4])
        inflate = zlib.decompressobj()
        payload = inflate.decompress(base64.b64decode(body, validate=True))
        if not inflate.eof or inflate.unused_data:
            raise WalError("not exactly one deflate stream")
        crc, first, size = struct.unpack_from("<III", payload, 0)
    except (ValueError, zlib.error, struct.error) as exc:
        raise WalError(f"undecodable frame: {exc}") from exc
    if zlib.crc32(payload[4:]) != crc:
        raise WalError("frame CRC mismatch")
    defined, pos = [], 12
    try:
        for _ in range(size):
            fingerprint, label_count = struct.unpack_from("<II", payload, pos)
            labels, pos = reference_labels(payload, pos + 8, label_count)
            if series_fingerprint(labels) != fingerprint:
                raise WalError("stamp is not the labels' fingerprint")
            if labels in defined:
                raise WalError("a series defined twice")
            defined.append(labels)
        (stated,) = struct.unpack_from("<I", payload, pos)
    except struct.error as exc:
        raise WalError(f"truncated frame: {exc}") from exc
    pos += 4
    if stated != count or len(payload) != pos + 20 * stated:
        raise WalError("sample count disagrees with the header or payload")
    if first > len(known):
        raise Refused(f"definitions start at {first}, {len(known)} known")
    table = list(known)
    for offset, labels in enumerate(defined):
        ref = first + offset
        if ref < len(table):
            if table[ref] != labels:
                raise WalError("a ref defined again with other labels")
        else:
            table.append(labels)
    samples = []
    for index in range(stated):
        (ref,) = struct.unpack_from("<I", payload, pos + 4 * index)
        (time_ns,) = struct.unpack_from("<q", payload, pos + 4 * stated
                                        + 8 * index)
        (value,) = struct.unpack_from("<d", payload, pos + 12 * stated
                                      + 8 * index)
        if ref >= len(table):
            raise WalError("a ref past the definitions")
        samples.append((table[ref], time_ns, value))
    known[:] = table
    return pieces[1], epoch, seq, samples


# ----------------------------------------------------------------------
# Chunks and archives: the list-based reference
# ----------------------------------------------------------------------
# Storage keeps samples in typed columns and encodes them with
# ``array.tobytes``.  The reference below is the list-and-``struct.pack``
# encoder that preceded it, one sample at a time, so "typed columns write
# the same bytes" is checked against code that shares nothing with them.
REFERENCE_CHUNK_SIZE = 120
ARCHIVE_MAGIC = b"TMSNAP"


def reference_chunks(samples):
    """``[(t, v)]`` of one series cut into append-order chunks, each a
    ``(start_ns, [t], [v])`` triple of plain lists."""
    chunks = []
    for time_ns, value in samples:
        if not chunks or len(chunks[-1][1]) >= REFERENCE_CHUNK_SIZE:
            chunks.append((time_ns, [], []))
        chunks[-1][1].append(time_ns)
        chunks[-1][2].append(value)
    return chunks


def reference_chunk_bytes(start_ns, times, values):
    """One chunk's wire bytes: header, unsigned deltas of the stamps,
    values."""
    deltas, previous = [], start_ns
    for time_ns in times:
        deltas.append(time_ns - previous)
        previous = time_ns
    count = len(times)
    return struct.pack(
        f"<qI{count}Q{count}d", start_ns, count, *deltas, *values)


def reference_archive_body(series):
    """An archive body from ``[(Labels, [(t, v)])]`` in the order given:
    version 2 stored it raw, version 3 deflates it."""
    pieces = [struct.pack("<I", len(series))]
    for labels, samples in series:
        pieces.append(struct.pack("<I", len(labels.items())))
        pieces.append(reference_label_bytes(labels.items()))
        chunks = reference_chunks(samples)
        pieces.append(struct.pack("<I", len(chunks)))
        for start_ns, times, values in chunks:
            encoded = reference_chunk_bytes(start_ns, times, values)
            pieces.append(struct.pack("<I", len(encoded)) + encoded)
    return b"".join(pieces)


def reference_snapshot(version, body):
    """A snapshot container stamped ``version`` around ``body`` as
    given; around a raw body, the version-2 layout restore refuses."""
    return ARCHIVE_MAGIC + struct.pack("<HI", version, zlib.crc32(body)) + body


def reference_deflated_snapshot(body):
    """A version-3 snapshot of ``body``: the same container around the
    body deflated in one call (equal to the writer's bytes once
    inflated, not necessarily before)."""
    return reference_snapshot(3, zlib.compress(body))


# ----------------------------------------------------------------------
# OpenMetrics exposition: the render-everything-every-time reference
# ----------------------------------------------------------------------
def _reference_value(value):
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _reference_pairs(pairs):
    return "{" + ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\")
                         .replace('"', '\\"').replace("\n", "\\n"))
        for name, value in pairs) + "}"


def _reference_labels(names, values):
    return _reference_pairs(zip(names, values)) if names else ""


def _reference_exemplar(exemplar):
    if exemplar is None:
        return ""
    text = f" # {_reference_pairs(exemplar.labels)}"
    text += " " + _reference_value(exemplar.value)
    if exemplar.timestamp_s is not None:
        text += " " + _reference_value(exemplar.timestamp_s)
    return text


def reference_encode_registry(registry):
    """Exposition text of ``registry.families()`` with nothing remembered
    between calls (collect callbacks are the caller's to run)."""
    lines = []
    for family in registry.families():
        name, names, kind = family.name, family.label_names, family.kind.value
        lines.append(f"# HELP {name} {family.help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for values, child in family.children():
            plain = _reference_labels(names, values)
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{plain} {_reference_value(child.value)}"
                    + _reference_exemplar(getattr(child, "exemplar", None)))
                continue
            for index, (bound, total) in enumerate(child.cumulative_buckets()):
                labels = _reference_labels(
                    names + ("le",), values + (_reference_value(bound),))
                lines.append(
                    f"{name}_bucket{labels} {total}"
                    + _reference_exemplar(child.exemplars.get(index)))
            lines.append(f"{name}_sum{plain} {_reference_value(child.sum)}")
            lines.append(f"{name}_count{plain} {child.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
