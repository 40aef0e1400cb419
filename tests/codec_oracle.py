"""Reference codecs: the uncached WAL-record and remote-write v3 frame
encoders, kept verbatim as the oracle the memoised production encoders
are checked against, plus the byte-level helpers the damage tests use
to take a frame apart and put a tampered one back together; the
list-based chunk and archive encoders the typed-column ones must match
byte for byte; and an exposition encoder that remembers nothing between
scrapes.

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
from repro.pmag.wal import MAX_RECORD_BYTES, RECORD_SAMPLE


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
        struct.pack("<BI", RECORD_SAMPLE, len(pairs))
        + reference_label_bytes(pairs)
        + struct.pack("<qd", time_ns, value)
    )
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record payload too large: {len(payload)} bytes")
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def reference_encode_record(labels, time_ns, value):
    """One framed WAL sample record, every byte computed from scratch."""
    return reference_record(labels.items(), time_ns, value)


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
