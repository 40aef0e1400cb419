"""TSDB snapshot and restore — the archival functionality.

The paper's §2.1 distinguishes TEEMon from SGX-TOP partly by "archival
functionality": monitoring data survives and can be inspected after the
fact.  This module serialises a TSDB to a compact binary snapshot (series
labels + delta-encoded chunks, the on-disk format of
:mod:`repro.pmag.chunks`) and restores it into a fresh database —
supporting backup, transfer between deployments, and post-mortem analysis
of a finished run.

Format (version 2, the single-store layout)::

    header:  magic "TMSNAP" | u16 version | u32 crc32 | u32 series count
    series:  u32 label count | (u16 len + utf8 key | u16 len + utf8 value)*
             u32 chunk count | (u32 len | chunk bytes)*

Version 3 is the sharded layout, written when snapshotting a
:class:`~repro.pmag.storage.ShardedTsdb`::

    header:  magic "TMSNAP" | u16 version=3 | u32 crc32 | u32 shard count
    shards:  (u32 body length | version-2 body)*   — one per shard, in order

The CRC32 covers every byte after the crc field itself, so a torn or
bit-flipped snapshot is detected up front instead of restoring
silently-wrong data.  Version-1 snapshots (no crc field) are still read
byte-for-byte.  :func:`restore` returns the engine shape the snapshot
recorded: a plain :class:`~repro.pmag.tsdb.Tsdb` for v1/v2 (the
single-store layout *is* "shard 0" of a one-shard world) and a
``ShardedTsdb`` with the recorded shard count for v3.

Restore adopts decoded chunks directly into each series — O(chunks), not
O(samples) — which also preserves the exact chunk boundaries the snapshot
recorded, so restored databases behave identically under chunk-granular
retention.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

from repro.errors import TsdbError
from repro.pmag.chunks import Chunk, ChunkedSeries
from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb

MAGIC = b"TMSNAP"
VERSION = 2
_V1 = 1
_V3 = 3
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise TsdbError(f"label component too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise TsdbError("truncated snapshot")
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    @property
    def exhausted(self) -> bool:
        return self._offset >= len(self._data)


def _body_pieces(tsdb: Tsdb) -> List[bytes]:
    """The series payload shared by both snapshot versions, unjoined."""
    pieces: List[bytes] = [
        struct.pack("<I", len(tsdb._series))  # noqa: SLF001
    ]
    for labels, storage in tsdb._series.items():  # noqa: SLF001 - archival is a DB feature
        items = labels.items()
        pieces.append(struct.pack("<I", len(items)))
        for key, value in items:
            pieces.append(_pack_text(key))
            pieces.append(_pack_text(value))
        chunks = storage._chunks  # noqa: SLF001
        pieces.append(struct.pack("<I", len(chunks)))
        for chunk in chunks:
            encoded = chunk.encode()
            pieces.append(struct.pack("<I", len(encoded)))
            pieces.append(encoded)
    return pieces


def snapshot(engine) -> bytearray:
    """Serialise a storage engine to bytes.

    A single-store :class:`Tsdb` writes the version-2 layout it always
    did (byte-identical for unchanged databases); a sharded engine —
    even one with a single shard — writes version 3, one version-2 body
    per shard, so the shard layout survives the round trip exactly.

    The snapshot is joined once, into a buffer the caller owns (the
    checksum is stamped into it afterwards): at checkpoint time it is
    the largest transient object in the process.
    """
    if isinstance(engine, Tsdb):
        version, pieces = VERSION, _body_pieces(engine)
    else:
        version = _V3
        pieces = [struct.pack("<I", engine.shard_count)]
        for index in range(engine.shard_count):
            shard_pieces = _body_pieces(engine.shard(index))
            pieces.append(struct.pack("<I", sum(map(len, shard_pieces))))
            pieces += shard_pieces
    data = bytearray().join([MAGIC, bytes(6), *pieces])
    with memoryview(data) as view:
        crc = zlib.crc32(view[len(MAGIC) + 6:])
    struct.pack_into("<HI", data, len(MAGIC), version, crc)
    return data


def _decode_series(reader: _Reader, tsdb: Tsdb) -> None:
    """Read one version-2 body (series count + series) into ``tsdb``.

    Restore is a third of a crash recovery and this loop is most of
    restore, so it walks the buffer by offset rather than through one
    :class:`_Reader` call per field.
    """
    data, pos = reader._data, reader._offset  # noqa: SLF001
    u16, u32 = _U16.unpack_from, _U32.unpack_from
    try:
        (series_count,) = u32(data, pos)
        pos += 4
        for _ in range(series_count):
            (label_count,) = u32(data, pos)
            pos += 4
            mapping = {}
            for _ in range(label_count):
                (size,) = u16(data, pos)
                middle = pos + 2 + size
                (size,) = u16(data, middle)
                end = middle + 2 + size
                if end > len(data):
                    raise TsdbError("truncated snapshot")
                mapping[data[pos + 2:middle].decode("utf-8")] = (
                    data[middle + 2:end].decode("utf-8"))
                pos = end
            labels = Labels(mapping)
            (chunk_count,) = u32(data, pos)
            pos += 4
            storage = ChunkedSeries()
            for _ in range(chunk_count):
                (length,) = u32(data, pos)
                pos += 4 + length
                if pos > len(data):
                    raise TsdbError("truncated snapshot")
                chunk = Chunk.decode(data[pos - length:pos])
                if len(chunk):
                    storage.adopt_chunk(chunk)
            if storage.sample_count:
                tsdb.install_series(labels, storage)
    except struct.error:
        raise TsdbError("truncated snapshot") from None
    reader._offset = pos  # noqa: SLF001


def restore(data: bytes):
    """Rebuild a storage engine from :func:`snapshot` output (v1/v2/v3).

    Returns a plain :class:`Tsdb` for version 1/2 snapshots and a
    :class:`~repro.pmag.storage.ShardedTsdb` with the recorded shard
    count for version 3 — each shard's series installed on the exact
    shard the snapshot recorded.
    """
    reader = _Reader(data)
    if reader.take(len(MAGIC)) != MAGIC:
        raise TsdbError("not a TEEMon snapshot (bad magic)")
    version = reader.u16()
    if version in (VERSION, _V3):
        expected_crc = reader.u32()
        # The CRC covers everything after the crc field itself:
        # magic (6) | version (2) | crc (4) | covered...
        with memoryview(data) as view:
            actual_crc = zlib.crc32(view[len(MAGIC) + 6:])
        if actual_crc != expected_crc:
            raise TsdbError(
                f"snapshot checksum mismatch: "
                f"crc32 {actual_crc:#010x} != recorded {expected_crc:#010x}"
            )
    elif version != _V1:
        raise TsdbError(f"unsupported snapshot version: {version}")
    if version == _V3:
        from repro.pmag.storage import ShardedTsdb

        shard_count = reader.u32()
        if shard_count < 1:
            raise TsdbError(f"bad shard count in snapshot: {shard_count}")
        engine = ShardedTsdb(shard_count)
        for index in range(shard_count):
            length = reader.u32()
            shard_reader = _Reader(reader.take(length))
            _decode_series(shard_reader, engine.shard(index))
            if not shard_reader.exhausted:
                raise TsdbError(
                    f"trailing garbage after shard {index} series"
                )
        result = engine
    else:
        tsdb = Tsdb()
        _decode_series(reader, tsdb)
        result = tsdb
    if not reader.exhausted:
        raise TsdbError(
            f"trailing garbage after last series: "
            f"{len(data) - reader._offset} bytes"  # noqa: SLF001
        )
    return result


def snapshot_window(tsdb, start_ns: int, end_ns: int) -> bytes:
    """Snapshot only the samples inside a time window (incident export).

    Chunks entirely inside the window are carried over as-is (boundary
    preservation again); only the edge chunks straddling the window are
    re-built from their surviving samples.  Works on any engine; the
    trimmed export is always a single-store (version 2) snapshot.
    """
    if end_ns < start_ns:
        raise TsdbError(f"bad window: {start_ns}..{end_ns}")
    trimmed = Tsdb()
    for labels, storage in tsdb.series_items():
        out = ChunkedSeries()
        for chunk in storage._chunks:  # noqa: SLF001
            if chunk.start_ns > end_ns or chunk.end_ns < start_ns:
                continue
            if chunk.start_ns >= start_ns and chunk.end_ns <= end_ns:
                out.adopt_chunk(chunk)
                continue
            low, high = chunk.window_bounds(start_ns, end_ns)
            if low == high:
                continue
            partial = Chunk(chunk._times[low])  # noqa: SLF001
            partial._times = chunk._times[low:high]  # noqa: SLF001
            partial._values = chunk._values[low:high]  # noqa: SLF001
            out.adopt_chunk(partial)
        if out.sample_count:
            trimmed.install_series(labels, out)
    return snapshot(trimmed)
