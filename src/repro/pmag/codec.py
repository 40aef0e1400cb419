"""The byte layouts every stored and shipped sample uses.

Samples cross three byte boundaries — the WAL (:mod:`repro.pmag.wal`),
the remote-write wire (:mod:`repro.pmag.remote_write`) and the
checkpoint snapshot (:mod:`repro.pmag.archive`, with chunks from
:mod:`repro.pmag.chunks`) — and all three spell them with the two
encodings kept here, little-endian:

* **label block** ``u32 count | (u16 len + utf8 key | u16 len + utf8
  value) * count``, keys strictly ascending — the order
  :meth:`Labels.items` yields, so a label set has one block and a block
  one label set;
* **column run** ``u32 n`` and then one whole column of ``n`` cells per
  ``array`` typecode (``I`` u32, ``q`` i64, ``Q`` u64, ``d`` f64), each
  column written by :func:`pack_column`: a WAL samples record and the
  tail of a wire frame each hold one :data:`SAMPLE_RUN` (``refs`` into
  the segment's or the frame's series, times, values), a chunk ``Qd``
  (time deltas, values).

What a decoder refuses — a truncated or non-canonical label block, text
that is not UTF-8, a run that does not fill its buffer exactly — and
what an encoder cannot write raise :class:`~repro.errors.WalError`.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Tuple

from repro.errors import WalError
from repro.pmag.model import Labels

SAMPLE_RUN = "Iqd"  # ref, time, value

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: ``array`` buffers are native; a big-endian host swaps every column.
_SWAP = sys.byteorder != "little"


def pack_text(text: str) -> bytes:
    """``u16 len | utf8``: a label component or a cursor key."""
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"label component too long: {len(raw)} bytes")
    return _U16.pack(len(raw)) + raw


def unpack_text(buf: bytes, offset: int) -> Tuple[str, int]:
    """The :func:`pack_text` field at ``offset``: ``(text, end)``."""
    try:
        (size,) = _U16.unpack_from(buf, offset)
        end = offset + 2 + size
        if end > len(buf):
            raise WalError("truncated text field")
        return buf[offset + 2:end].decode("utf-8"), end
    except struct.error:
        raise WalError("truncated text field") from None
    except UnicodeDecodeError as exc:
        raise WalError(f"text is not UTF-8: {exc}") from None


def pack_labels(labels: Labels) -> bytes:
    """The label block of ``labels``."""
    pairs = labels.items()
    pieces = [_U32.pack(len(pairs))]
    for key, value in pairs:
        pieces.append(pack_text(key))
        pieces.append(pack_text(value))
    return b"".join(pieces)


def unpack_labels(buf: bytes, offset: int) -> Tuple[Labels, int]:
    """The label block at ``offset``: ``(labels, end offset)``.  A
    repeated key would collapse under a stale count and an unsorted one
    give a series two encodings, so both are refused.  A restore reads
    one block per series, so the fields are read inline."""
    u16 = _U16.unpack_from
    mapping = {}
    previous = None
    try:
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        for _ in range(count):
            (size,) = u16(buf, offset)
            middle = offset + 2 + size
            (size,) = u16(buf, middle)
            end = middle + 2 + size
            if end > len(buf):
                raise WalError("truncated label block")
            key = buf[offset + 2:middle].decode("utf-8")
            if previous is not None and key <= previous:
                raise WalError(f"label keys not strictly ascending at {key!r}")
            mapping[key] = buf[middle + 2:end].decode("utf-8")
            previous = key
            offset = end
    except struct.error:
        raise WalError("truncated label block") from None
    except UnicodeDecodeError as exc:
        raise WalError(f"label text is not UTF-8: {exc}") from None
    return Labels(mapping), offset


def pack_column(column: array) -> bytes:
    """The cells of ``column``, little-endian."""
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def unpack_run(typecodes: str, buf: bytes, offset: int) -> List[array]:
    """The column run at ``offset``, which must end where ``buf`` does,
    as one new ``array`` per typecode, each read with one
    ``frombytes``."""
    columns = [array(typecode) for typecode in typecodes]
    try:
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        for column in columns:
            end = offset + count * column.itemsize
            column.frombytes(buf[offset:end])
            offset = end
    except (struct.error, ValueError):  # cut short mid-count or mid-cell
        offset = -1
    if offset != len(buf):
        raise WalError(f"a run does not fill its {len(buf)} bytes")
    if _SWAP:
        for column in columns:
            column.byteswap()
    return columns
