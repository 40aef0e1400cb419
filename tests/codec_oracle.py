"""Reference codecs: the version-1 WAL (one record per sample, labels
inline) that production no longer writes — its memoised encoder, its
decoder and its writer, kept verbatim as the differential reference and
the benchmark control — and a from-scratch model of the version-2 log
(series records + sample runs): writer, reader and loss count; the
uncached remote-write v3 frame encoder, plus the byte-level helpers the
damage tests use to take a frame apart and put a tampered one back
together; the list-based chunk and archive encoders the typed-column
ones must match byte for byte; and an exposition encoder that remembers
nothing between scrapes.

Nothing here calls the codecs under test — only their format constants
and ``series_fingerprint`` — so a bug in the production label packer
cannot hide in its own oracle.
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
    RECORD_SAMPLE_V1,
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


def reference_record(pairs, time_ns, value):
    """One framed WAL sample record from explicit label pairs, written
    in the order given — damage tests pass non-canonical ones."""
    payload = (
        struct.pack("<BI", RECORD_SAMPLE_V1, len(pairs))
        + reference_label_bytes(pairs)
        + struct.pack("<qd", time_ns, value)
    )
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record payload too large: {len(payload)} bytes")
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def reference_encode_record(labels, time_ns, value):
    """One framed WAL sample record, every byte computed from scratch."""
    return reference_record(labels.items(), time_ns, value)


# ----------------------------------------------------------------------
# WAL version 1, as production wrote it
# ----------------------------------------------------------------------
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


def decode_record_v1(payload):
    """A version-1 sample payload back into ``(labels, time_ns, value)``."""
    try:
        kind, label_count = struct.unpack_from("<BI", payload, 0)
        if kind != RECORD_SAMPLE_V1:
            raise WalError(f"unknown record kind: {kind}")
        labels, offset = reference_labels(payload, 5, label_count)
        time_ns, value = struct.unpack_from("<qd", payload, offset)
    except struct.error as exc:
        raise WalError(f"malformed record payload: {exc}") from exc
    if offset + 16 != len(payload):
        raise WalError("trailing bytes in record payload")
    return labels, time_ns, value


def reference_cursor_record(key, cursor_ns):
    """One framed cursor record (the same in both segment versions)."""
    payload = (struct.pack("<B", RECORD_CURSOR) + _pack_text(key)
               + struct.pack("<q", cursor_ns))
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


class WalWriterV1:
    """The version-1 sample write path as it stood in ``WalWriter``:
    one memoised record per sample, count-based flushes and rotation.
    Writes fixtures for the read shim and is ``bench_wal``'s control."""

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
# WAL version 2: a model that shares nothing with the writer under test
# ----------------------------------------------------------------------
def _frame(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def reference_series_record(ref, pairs, label_count=None):
    """One framed series record; ``pairs`` written in the order given
    and ``label_count`` as given, for damage tests."""
    count = len(pairs) if label_count is None else label_count
    return _frame(struct.pack("<BII", RECORD_SERIES, ref, count)
                  + reference_label_bytes(pairs))


def reference_sample_run(samples, count=None):
    """One framed samples record from ``[(ref, time_ns, value)]``, one
    sample at a time; ``count`` overrides the stated length."""
    stated = len(samples) if count is None else count
    return _frame(
        struct.pack("<BI", RECORD_SAMPLES, stated)
        + b"".join(struct.pack("<Iqd", *sample) for sample in samples))


class ReferenceLogV2:
    """What a version-2 writer must leave on the medium, computed one
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
            SEGMENT_MAGIC + struct.pack("<HI", 2, len(self.segments) + 1)))
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
    ``file_offset`` of a version-2 segment — no CRC looked at."""
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


def reference_replay_v2(data):
    """Read one version-2 segment the slow way.

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
                        ref, time_ns, value = struct.unpack_from(
                            "<Iqd", payload, 5 + 20 * index)
                        if ref not in refs:
                            run = []
                            break
                        run.append((refs[ref], time_ns, value))
            if run:
                samples += run
            else:
                lost += _frame_sample_count(kind, length)
    return samples, cursors, lost


def reference_replay_v1(data):
    """The same for a version-1 segment: every frame that is not a
    cursor is one sample, replayed if it decodes and lost if not."""
    samples, cursors, lost = [], {}, 0
    for _offset, payload, intact in segment_frames(data):
        if payload[0] == RECORD_CURSOR:
            if intact:
                _read_cursor(payload, cursors)
            continue
        try:
            if not intact:
                raise WalError("CRC mismatch")
            samples.append(decode_record_v1(payload))
        except WalError:
            lost += 1
    return samples, cursors, lost


# ----------------------------------------------------------------------
# Remote-write v3 frames
# ----------------------------------------------------------------------
def reference_block(fingerprint, pairs, samples, label_count=None):
    """One v3 series block (unframed) from explicit parts.

    ``pairs`` are written in the order given and ``fingerprint`` /
    ``label_count`` as given, so damage tests can build non-canonical or
    mis-stamped blocks a real encoder never would.
    """
    count = len(pairs) if label_count is None else label_count
    return (
        struct.pack("<II", fingerprint, count)
        + reference_label_bytes(pairs)
        + struct.pack("<I", len(samples))
        + b"".join(struct.pack("<qd", t, v) for t, v in samples)
    )


def frame_from_blocks(sender, epoch, seq, count, blocks):
    """A v3 frame whose payload is ``blocks``, each framed len + CRC."""
    return frame_from_payload(sender, epoch, seq, count, b"".join(
        struct.pack("<II", len(block), zlib.crc32(block)) + block
        for block in blocks
    ))


def frame_from_payload(sender, epoch, seq, count, payload):
    """A v3 frame around an arbitrary (possibly damaged) payload."""
    body = base64.b64encode(zlib.compress(payload, 6)).decode("ascii")
    return f"{FRAME_MAGIC} {sender} {epoch} {seq} {count}\n{body}"


def frame_payload(text):
    """The decompressed block stream of a frame."""
    return zlib.decompress(base64.b64decode(text.split("\n", 1)[1]))


def frame_blocks(text):
    """The unframed blocks of a well-formed frame, in order."""
    payload = frame_payload(text)
    blocks, pos = [], 0
    while pos < len(payload):
        (length,) = struct.unpack_from("<I", payload, pos)
        blocks.append(payload[pos + 8:pos + 8 + length])
        pos += 8 + length
    return blocks


def reference_encode_frame(sender, epoch, seq, entries):
    """The v3 frame for ``entries``: one block per series in
    first-appearance order, nothing carried over from any other frame."""
    if not sender or any(c in sender for c in " \n"):
        raise WalError(f"sender not wire-safe: {sender!r}")
    groups = {}
    for labels, time_ns, value in entries:
        groups.setdefault(labels, []).append((time_ns, value))
    blocks = []
    for labels, samples in groups.items():
        block = reference_block(
            series_fingerprint(labels), labels.items(), samples)
        if len(block) > MAX_RECORD_BYTES:
            raise WalError(f"series block too large: {len(block)} bytes")
        blocks.append(block)
    return frame_from_blocks(sender, epoch, seq, len(entries), blocks)


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
    """One chunk's wire bytes: header, delta-encoded stamps, values."""
    deltas, previous = [], start_ns
    for time_ns in times:
        deltas.append(time_ns - previous)
        previous = time_ns
    count = len(times)
    return struct.pack(
        f"<qI{count}q{count}d", start_ns, count, *deltas, *values)


def reference_archive_body(series):
    """A version-2 body from ``[(Labels, [(t, v)])]`` in the order given."""
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
    """A snapshot container (v2 single store, v3 sharded) around ``body``."""
    return ARCHIVE_MAGIC + struct.pack("<HI", version, zlib.crc32(body)) + body


def reference_sharded_body(shard_bodies):
    """The version-3 body: shard count, then each length-prefixed v2 body."""
    return struct.pack("<I", len(shard_bodies)) + b"".join(
        struct.pack("<I", len(body)) + body for body in shard_bodies)


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
            if kind == "histogram":
                for index, (bound, total) in enumerate(
                        child.cumulative_buckets()):
                    labels = _reference_labels(
                        names + ("le",), values + (_reference_value(bound),))
                    lines.append(
                        f"{name}_bucket{labels} {total}"
                        + _reference_exemplar(child.exemplars.get(index)))
            else:
                for quantile, estimate in child.quantile_values():
                    if estimate == estimate:  # NaN: no observation yet
                        labels = _reference_labels(
                            names + ("quantile",),
                            values + (_reference_value(quantile),))
                        lines.append(
                            f"{name}{labels} {_reference_value(estimate)}")
            lines.append(f"{name}_sum{plain} {_reference_value(child.sum)}")
            lines.append(f"{name}_count{plain} {child.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
