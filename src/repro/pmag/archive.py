"""TSDB snapshot and restore — the archival functionality.

The paper's §2.1 distinguishes TEEMon from SGX-TOP partly by "archival
functionality": monitoring data survives and can be inspected after the
fact.  This module serialises a TSDB to a compact binary snapshot (series
labels + delta-encoded chunks, the on-disk format of
:mod:`repro.pmag.chunks`, deflated) and restores it into a fresh
database — supporting backup, transfer between deployments, and
post-mortem analysis of a finished run.  It is also the WAL's checkpoint
format.

Format (version 3, the one layout written and read)::

    header:  magic "TMSNAP" | u16 version | u32 crc32
    body:    deflate( u32 series count | series* )
    series:  u32 label count | (u16 len + utf8 key | u16 len + utf8 value)*
             u32 chunk count | (u32 len | chunk bytes)*

The series layout is version 2's byte for byte; version 3 deflates the
body as it is written, one series at a time, so a checkpoint never
holds the raw store in memory.  The CRC32 covers every byte after the
crc field itself (the deflated stream), so a torn or bit-flipped
snapshot is detected up front instead of restoring silently-wrong data.
Any engine snapshots into this layout — a sharded engine's series follow
one another in shard order — and :func:`restore` always returns a plain
:class:`~repro.pmag.tsdb.Tsdb`.  A snapshot of any other version, one
whose body does not inflate to exactly one complete deflate stream, or
one whose inflated body does not parse, is a
:class:`~repro.errors.TsdbError`: restore raises nothing else.

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
VERSION = 3
#: zlib level of the body.  Level 1 already shrinks a fleet store 38-40x;
#: level 6 takes 2-3x the deflate time for 54-62x, and for 4 % fewer
#: bytes on ``crash_loop`` (EXPERIMENTS.md "Checkpoint footprint").
LEVEL = 1
#: magic | u16 version | u32 crc32 — the CRC covers everything after it.
_HEADER_SIZE = len(MAGIC) + 6
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def _pack_text(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise TsdbError(f"label component too long: {len(raw)} bytes")
    return _U16.pack(len(raw)) + raw


def snapshot(engine) -> bytearray:
    """Serialise a storage engine to bytes, in one pass over
    ``engine.series_items()``.

    Each series is encoded and fed to one deflate stream on its own, so
    the raw body never exists whole: besides the result — the deflated
    body, in a buffer the caller owns, checksum stamped in afterwards —
    a snapshot holds only the deflate state and one series' bytes.
    """
    items = list(engine.series_items())  # the count leads the stream
    deflate = zlib.compressobj(LEVEL)
    data = bytearray(MAGIC)
    data += bytes(6)
    data += deflate.compress(_U32.pack(len(items)))
    for labels, storage in items:
        pairs = labels.items()
        pieces: List[bytes] = [_U32.pack(len(pairs))]
        for key, value in pairs:
            pieces.append(_pack_text(key))
            pieces.append(_pack_text(value))
        chunks = storage._chunks  # noqa: SLF001 - archival is a DB feature
        pieces.append(_U32.pack(len(chunks)))
        for chunk in chunks:
            encoded = chunk.encode()
            pieces.append(_U32.pack(len(encoded)))
            pieces.append(encoded)
        data += deflate.compress(b"".join(pieces))
    data += deflate.flush()
    with memoryview(data) as view:
        crc = zlib.crc32(view[_HEADER_SIZE:])
    struct.pack_into("<HI", data, len(MAGIC), VERSION, crc)
    return data


def _decode_series(data: bytes, pos: int, tsdb: Tsdb) -> int:
    """Read the body (series count + series) at ``pos`` into ``tsdb``;
    returns the offset just past it.

    Restore is a third of a crash recovery and this loop is most of
    restore, so it walks the buffer by offset.
    """
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
    except UnicodeDecodeError as exc:
        raise TsdbError(f"label text is not UTF-8: {exc}") from None
    return pos


def restore(data: bytes) -> Tsdb:
    """Rebuild a :class:`Tsdb` from :func:`snapshot` output."""
    if data[:len(MAGIC)] != MAGIC:
        raise TsdbError("not a TEEMon snapshot (bad magic)")
    if len(data) < _HEADER_SIZE:
        raise TsdbError("truncated snapshot")
    version, expected_crc = struct.unpack_from("<HI", data, len(MAGIC))
    if version != VERSION:
        raise TsdbError(f"unsupported snapshot version: {version}")
    # ``zlib.decompress`` ignores bytes past the end of the stream, so
    # the body inflates through an object that reports them.
    inflate = zlib.decompressobj()
    with memoryview(data) as view:
        actual_crc = zlib.crc32(view[_HEADER_SIZE:])
        if actual_crc != expected_crc:
            raise TsdbError(
                f"snapshot checksum mismatch: "
                f"crc32 {actual_crc:#010x} != recorded {expected_crc:#010x}"
            )
        try:
            body = inflate.decompress(view[_HEADER_SIZE:])
        except zlib.error as exc:
            raise TsdbError(f"snapshot body does not inflate: {exc}") from None
    if not inflate.eof:
        raise TsdbError("truncated snapshot: deflate stream does not end")
    if inflate.unused_data:
        raise TsdbError(
            f"trailing garbage after the deflate stream: "
            f"{len(inflate.unused_data)} bytes")
    tsdb = Tsdb()
    end = _decode_series(body, 0, tsdb)
    if end != len(body):
        raise TsdbError(
            f"trailing garbage after last series: {len(body) - end} bytes")
    return tsdb
