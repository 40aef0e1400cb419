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
  ``array`` typecode (``I`` u32, ``q`` i64, ``Q`` u64, ``d`` f64): a WAL
  samples record holds a :data:`LOG_RUN`, a wire block a
  :data:`WIRE_RUN`, a chunk ``Qd`` (time deltas, values).

What a decoder refuses — a truncated or non-canonical label block, text
that is not UTF-8, a run that does not fill its buffer exactly — and
what an encoder cannot write raise :class:`~repro.errors.WalError`.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import List, Sequence, Tuple

from repro.errors import WalError
from repro.pmag.model import Labels

LOG_RUN = "Iqd"  # ref, time, value
WIRE_RUN = "qd"  # time, value

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


def pack_run(typecodes: str, rows: Sequence) -> bytes:
    """The column run of ``rows``, cells listed row after row (``[ref,
    time, value, ref, ...]`` for :data:`LOG_RUN`), in one ``struct``
    call.  Most wire blocks hold one row, which is its own run."""
    width = len(typecodes)
    count = len(rows) // width
    layout = "<I" + typecodes
    if count != 1:
        columns = rows[::width]
        for column in range(1, width):
            columns += rows[column::width]
        rows = columns
        cells = str(count)
        layout = "<I" + cells + cells.join(typecodes)
    try:
        return struct.pack(layout, count, *rows)
    except struct.error as exc:
        raise WalError(f"not a {typecodes!r} run: {exc}") from None


def extend_run(columns: Sequence[array], buf: bytes, offset: int) -> int:
    """Append the column run at ``offset``, which must end where ``buf``
    does, to ``columns`` (one ``array`` per column); returns its row
    count.  A malformed run may leave them part-extended.  A wire frame
    decodes every block into the same two columns."""
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
    if _SWAP and count:
        for column in columns:
            tail = column[-count:]
            tail.byteswap()
            column[-count:] = tail
    return count


def unpack_run(typecodes: str, buf: bytes, offset: int) -> List[array]:
    """The column run at ``offset``, which must end where ``buf`` does,
    as one new ``array`` per typecode."""
    columns = [array(typecode) for typecode in typecodes]
    extend_run(columns, buf, offset)
    return columns
