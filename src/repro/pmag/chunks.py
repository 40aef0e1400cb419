"""Chunked sample storage.

The paper: the PMAG "stores all metrics data samples locally and groups
them into chunks for faster retrieval".  A :class:`Chunk` holds up to
``CHUNK_SIZE`` samples in two typed columns — ``array('q')`` timestamps
and ``array('d')`` values, 16 bytes a sample with no per-sample object —
timestamps absolute in memory so window queries can binary-search, and
delta-encoded only in the serialised archival format (scrape intervals
are regular, so deltas are tiny and mostly constant).  A
:class:`ChunkedSeries` is an append-only list of chunks with
binary-search retrieval over time ranges — both across chunks (on chunk
start times) and inside each chunk (on sample timestamps).  Windows come
back as arrays too, built by ``array.extend(array)``: a copy of bytes,
not a boxing of every sample.
"""

from __future__ import annotations

import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from operator import lt, sub
from typing import Iterator, List, Optional, Tuple

from repro.errors import TsdbError
from repro.pmag.model import Sample, sample_of

CHUNK_SIZE = 120  # samples per chunk; 10 minutes at the 5 s default interval

#: The wire format is little-endian; array bytes are native.
_SWAP = sys.byteorder != "little"


def _wire_bytes(column: array) -> bytes:
    if _SWAP:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_wire(typecode: str, data: bytes) -> array:
    column = array(typecode)
    column.frombytes(data)
    if _SWAP:
        column.byteswap()
    return column


def _is_column(data, typecode: str) -> bool:
    return isinstance(data, array) and data.typecode == typecode


class Chunk:
    """Up to CHUNK_SIZE samples; absolute timestamps, sorted ascending."""

    __slots__ = ("start_ns", "_times", "_values")

    def __init__(self, start_ns: int) -> None:
        self.start_ns = start_ns
        self._times = array("q")
        self._values = array("d")

    def __len__(self) -> int:
        return len(self._values)

    @property
    def full(self) -> bool:
        """Whether the chunk has reached capacity."""
        return len(self._values) >= CHUNK_SIZE

    @property
    def end_ns(self) -> int:
        """Timestamp of the newest sample."""
        return self._times[-1] if self._times else self.start_ns

    def append(self, time_ns: int, value: float) -> None:
        """Append one sample; timestamps must be strictly increasing.

        The columns are typed: a timestamp that is not an int64 or a
        value that is not a number is a :class:`TsdbError` like any
        other rejected sample, and leaves the chunk as it was.
        """
        times = self._times
        try:
            if times:
                if time_ns <= times[-1]:
                    raise TsdbError(
                        f"out-of-order append: {time_ns} <= {times[-1]}"
                    )
                if len(times) >= CHUNK_SIZE:
                    raise TsdbError("append to a full chunk")
            elif time_ns != self.start_ns:
                raise TsdbError("first sample must land at the chunk start time")
            self._values.append(value)
            times.append(time_ns)
        except (TypeError, OverflowError) as exc:
            del self._values[len(times):]  # whichever column refused
            raise TsdbError(
                f"not an int64 timestamp and a float value: "
                f"{time_ns!r}, {value!r} ({exc})"
            ) from None

    def samples(self) -> Iterator[Sample]:
        """Iterate samples in time order."""
        return map(sample_of, zip(self._times, self._values))

    def window_bounds(self, start_ns: int, end_ns: int) -> Tuple[int, int]:
        """Index range [low, high) of samples inside the window."""
        low = bisect_left(self._times, start_ns)
        return low, bisect_right(self._times, end_ns, low)

    def last_sample(self) -> Optional[Sample]:
        """The newest sample without decoding anything, if any."""
        if not self._times:
            return None
        return Sample(self._times[-1], self._values[-1])

    # The wire format delta-encodes timestamps as unsigned 64-bit ints,
    # with a leading 0 delta for the first sample (which always lands
    # exactly on start_ns).  Strictly increasing int64 stamps are less
    # than 2**64 apart, so every chunk the store can hold encodes.
    def encode(self) -> bytes:
        """Serialise to bytes (archival format)."""
        stamps = self._times.tolist()
        count = len(stamps)
        stamps.insert(0, self.start_ns)
        head = struct.pack(
            f"<qI{count}Q", self.start_ns, count,
            *map(sub, stamps[1:], stamps))
        return head + _wire_bytes(self._values)

    @staticmethod
    def decode(data: bytes) -> "Chunk":
        """Deserialise from :meth:`encode` output."""
        if len(data) < 12:
            raise TsdbError("chunk data too short")
        start_ns, count = struct.unpack_from("<qI", data, 0)
        expected = 12 + count * 8 + count * 8
        if len(data) != expected:
            raise TsdbError(f"chunk data length {len(data)} != expected {expected}")
        chunk = Chunk(start_ns)
        if not count:
            return chunk
        deltas = list(struct.unpack_from(f"<{count}Q", data, 12))
        # The leading delta must be zero and the rest non-zero, or the
        # chunk bytes are corrupt.
        if deltas[0] != 0:
            raise TsdbError(f"first delta must be 0, got {deltas[0]}")
        if count > 1 and min(deltas[1:]) == 0:
            raise TsdbError("non-monotonic timestamps in chunk data")
        # Neither column is filled by a per-sample loop: the timestamps
        # are a running sum over the deltas, the values the bytes as they
        # are.  (``array`` takes a list several times faster than it
        # takes an iterator.)
        deltas[0] = start_ns
        try:
            chunk._times = array("q", list(accumulate(deltas)))
        except OverflowError:
            raise TsdbError("timestamps in chunk data overflow int64") from None
        chunk._values = _from_wire("d", data[12 + count * 8:])
        return chunk

    def memory_bytes(self) -> int:
        """In-memory footprint: two 8-byte column cells per sample."""
        return 24 + len(self._values) * 16


class ChunkedSeries:
    """Append-only chunk list for one series."""

    __slots__ = ("_chunks", "_starts", "_count")

    def __init__(self) -> None:
        self._chunks: List[Chunk] = []
        self._starts: List[int] = []
        self._count = 0

    @property
    def sample_count(self) -> int:
        """Total stored samples."""
        return self._count

    @property
    def chunk_count(self) -> int:
        """Number of chunks."""
        return len(self._chunks)

    def last_time_ns(self) -> Optional[int]:
        """Newest timestamp, if any."""
        return self._chunks[-1].end_ns if self._chunks else None

    def last_sample(self) -> Optional[Sample]:
        """The newest sample, if any — O(1), no window scan."""
        return self._chunks[-1].last_sample() if self._chunks else None

    def first_chunk_end_ns(self) -> int:
        """Newest timestamp of the oldest chunk: what a retention cutoff
        must pass before :meth:`drop_before` drops anything.  The series
        must not be empty."""
        return self._chunks[0].end_ns

    def append(self, time_ns: int, value: float) -> None:
        """Append a sample, opening a new chunk when the head is full."""
        chunks = self._chunks
        if chunks and len(chunks[-1]._values) < CHUNK_SIZE:
            chunks[-1].append(time_ns, value)
        else:
            # Fill the new chunk before installing it: a sample the typed
            # columns refuse must not leave an empty chunk behind.
            chunk = Chunk(time_ns)
            chunk.append(time_ns, value)
            if chunks and time_ns <= chunks[-1].end_ns:
                raise TsdbError(
                    f"out-of-order append: {time_ns} <= {chunks[-1].end_ns}"
                )
            chunks.append(chunk)
            self._starts.append(time_ns)
        self._count += 1

    def append_run(self, times, values) -> List[int]:
        """Append a run of samples; returns the indices it rejected.

        Sample for sample the outcome of calling :meth:`append` in
        order — same accepted set, same chunk boundaries — but a run
        that is strictly increasing and starts past the tail (the only
        kind a log replay or a well-behaved sender produces) is checked
        once and copied into the typed columns a chunk's worth per
        slice.  Anything else takes the per-sample path, which is where
        rejections come from.
        """
        count = len(times)
        if len(values) != count:
            raise TsdbError(
                f"run columns differ in length: {count} != {len(values)}")
        if not count:
            return []
        chunks = self._chunks
        try:
            stamps = times if _is_column(times, "q") else array("q", times)
            column = values if _is_column(values, "d") else array("d", values)
        except (TypeError, OverflowError):
            return self._append_each(times, values)
        if ((chunks and stamps[0] <= chunks[-1].end_ns)
                or not all(map(lt, stamps, islice(stamps, 1, None)))):
            return self._append_each(times, values)
        pos = 0
        if chunks and len(chunks[-1]._values) < CHUNK_SIZE:
            head = chunks[-1]
            pos = CHUNK_SIZE - len(head._values)
            head._times.extend(stamps[:pos])
            head._values.extend(column[:pos])
        while pos < count:
            chunk = Chunk(stamps[pos])
            chunk._times = stamps[pos:pos + CHUNK_SIZE]
            chunk._values = column[pos:pos + CHUNK_SIZE]
            chunks.append(chunk)
            self._starts.append(chunk.start_ns)
            pos += CHUNK_SIZE
        self._count += count
        return []

    def _append_each(self, times, values) -> List[int]:
        rejected: List[int] = []
        for index, (time_ns, value) in enumerate(zip(times, values)):
            try:
                self.append(time_ns, value)
            except TsdbError:
                rejected.append(index)
        return rejected

    def adopt_chunk(self, chunk: Chunk) -> None:
        """Append a fully-built chunk (the archive restore fast path).

        Preserves the chunk boundaries the snapshot recorded instead of
        re-chunking sample-by-sample — O(chunks), not O(samples).  The
        chunk must be non-empty and strictly after the current tail.
        """
        if len(chunk) == 0:
            raise TsdbError("cannot adopt an empty chunk")
        last = self.last_time_ns()
        if last is not None and chunk._times[0] <= last:  # noqa: SLF001
            raise TsdbError(
                f"out-of-order chunk: starts {chunk._times[0]} <= {last}"  # noqa: SLF001
            )
        self._chunks.append(chunk)
        self._starts.append(chunk.start_ns)
        self._count += len(chunk)

    def window(self, start_ns: int, end_ns: int) -> List[Sample]:
        """Samples with ``start_ns <= t <= end_ns``."""
        return list(map(sample_of, zip(*self.window_arrays(start_ns, end_ns))))

    def window_arrays(self, start_ns: int, end_ns: int) -> Tuple[array, array]:
        """Samples with ``start_ns <= t <= end_ns`` as parallel
        (timestamps, values) arrays.

        ``array('q')``/``array('d')`` extended from chunk columns — bytes
        are copied, no per-sample object is allocated, which is what
        makes the query engine's range evaluation cheap.
        """
        if end_ns < start_ns:
            raise TsdbError(f"bad window: {start_ns}..{end_ns}")
        # First chunk that may overlap: the one before the first start > start_ns;
        # last: chunks whose start is already past end_ns cannot contribute.
        first = max(0, bisect_right(self._starts, start_ns) - 1)
        last = bisect_right(self._starts, end_ns, first)
        times = array("q")
        values = array("d")
        for chunk in self._chunks[first:last]:
            chunk_times = chunk._times
            if chunk_times[0] >= start_ns and chunk_times[-1] <= end_ns:
                # Wholly inside the window: no bisects, no slice copies.
                times.extend(chunk_times)
                values.extend(chunk._values)
                continue
            if chunk_times[-1] < start_ns:
                continue
            low, high = chunk.window_bounds(start_ns, end_ns)
            if low < high:
                times.extend(chunk_times[low:high])
                values.extend(chunk._values[low:high])
        return times, values

    def drop_before(self, cutoff_ns: int) -> int:
        """Retention: drop whole chunks entirely older than ``cutoff_ns``.

        Returns the number of samples dropped.  Partial chunks are kept —
        retention is chunk-granular, as in real TSDBs.
        """
        keep = 0
        while keep < len(self._chunks) and self._chunks[keep].end_ns < cutoff_ns:
            keep += 1
        if keep == 0:
            return 0
        dropped = sum(len(chunk) for chunk in self._chunks[:keep])
        del self._chunks[:keep]
        del self._starts[:keep]
        self._count -= dropped
        return dropped

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint."""
        return sum(chunk.memory_bytes() for chunk in self._chunks)
