"""Chunked sample storage.

The paper: the PMAG "stores all metrics data samples locally and groups
them into chunks for faster retrieval".  A :class:`Chunk` holds up to
``CHUNK_SIZE`` samples; timestamps are kept absolute in memory so window
queries can binary-search, and are delta-encoded only in the serialised
archival format (scrape intervals are regular, so deltas are tiny and
mostly constant).  A :class:`ChunkedSeries` is an append-only list of
chunks with binary-search retrieval over time ranges — both across chunks
(on chunk start times) and inside each chunk (on sample timestamps).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TsdbError
from repro.pmag.model import Sample

CHUNK_SIZE = 120  # samples per chunk; 10 minutes at the 5 s default interval


class Chunk:
    """Up to CHUNK_SIZE samples; absolute timestamps, sorted ascending."""

    __slots__ = ("start_ns", "_times", "_values")

    def __init__(self, start_ns: int) -> None:
        self.start_ns = start_ns
        self._times: List[int] = []
        self._values: List[float] = []

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
        """Append one sample; timestamps must be strictly increasing."""
        if self._times:
            if time_ns <= self._times[-1]:
                raise TsdbError(
                    f"out-of-order append: {time_ns} <= {self._times[-1]}"
                )
            if self.full:
                raise TsdbError("append to a full chunk")
        elif time_ns != self.start_ns:
            raise TsdbError("first sample must land at the chunk start time")
        self._times.append(time_ns)
        self._values.append(value)

    def samples(self) -> Iterator[Sample]:
        """Iterate samples in time order."""
        for time_ns, value in zip(self._times, self._values):
            yield Sample(time_ns, value)

    def window_samples(self, start_ns: int, end_ns: int) -> List[Sample]:
        """Samples with ``start_ns <= t <= end_ns`` via binary search."""
        times = self._times
        low = bisect_left(times, start_ns)
        high = bisect_right(times, end_ns, low)
        return [
            Sample(t, v)
            for t, v in zip(times[low:high], self._values[low:high])
        ]

    def window_bounds(self, start_ns: int, end_ns: int) -> Tuple[int, int]:
        """Index range [low, high) of samples inside the window."""
        low = bisect_left(self._times, start_ns)
        return low, bisect_right(self._times, end_ns, low)

    def last_sample(self) -> Optional[Sample]:
        """The newest sample without decoding anything, if any."""
        if not self._times:
            return None
        return Sample(self._times[-1], self._values[-1])

    # The wire format delta-encodes timestamps, with a leading 0 delta for
    # the first sample (which always lands exactly on start_ns).
    def encode(self) -> bytes:
        """Serialise to bytes (archival format)."""
        count = len(self._values)
        deltas: List[int] = []
        previous = self.start_ns
        for time_ns in self._times:
            deltas.append(time_ns - previous)
            previous = time_ns
        return struct.pack(
            f"<qI{count}q{count}d", self.start_ns, count, *deltas, *self._values
        )

    @staticmethod
    def decode(data: bytes, instants: Optional[Dict[int, int]] = None) -> "Chunk":
        """Deserialise from :meth:`encode` output.

        ``instants`` interns timestamps across the chunks of one restore:
        a scrape stamps one instant on every series it touches, and a
        restored store should hold it as one shared int, as the live
        one did, not one per sample.
        """
        if len(data) < 12:
            raise TsdbError("chunk data too short")
        start_ns, count = struct.unpack_from("<qI", data, 0)
        expected = 12 + count * 8 + count * 8
        if len(data) != expected:
            raise TsdbError(f"chunk data length {len(data)} != expected {expected}")
        payload = struct.unpack_from(f"<{count}q{count}d", data, 12)
        deltas, values = payload[:count], payload[count:]
        # Straight cumulative sum over the deltas; the leading delta must be
        # zero and the rest positive, or the chunk bytes are corrupt.
        if count:
            if deltas[0] != 0:
                raise TsdbError(f"first delta must be 0, got {deltas[0]}")
            if any(delta <= 0 for delta in deltas[1:]):
                raise TsdbError("non-monotonic timestamps in chunk data")
        chunk = Chunk(start_ns)
        current = start_ns
        for delta, value in zip(deltas, values):
            current += delta
            chunk._times.append(current)
            chunk._values.append(value)
        if instants is not None:
            chunk._times = list(
                map(instants.setdefault, chunk._times, chunk._times))
        return chunk

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint."""
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

    def append(self, time_ns: int, value: float) -> None:
        """Append a sample, opening a new chunk when the head is full."""
        last = self.last_time_ns()
        if last is not None and time_ns <= last:
            raise TsdbError(f"out-of-order append: {time_ns} <= {last}")
        if not self._chunks or self._chunks[-1].full:
            chunk = Chunk(time_ns)
            self._chunks.append(chunk)
            self._starts.append(time_ns)
        self._chunks[-1].append(time_ns, value)
        self._count += 1

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
        if end_ns < start_ns:
            raise TsdbError(f"bad window: {start_ns}..{end_ns}")
        # First chunk that may overlap: the one before the first start > start_ns;
        # last: chunks whose start is already past end_ns cannot contribute.
        first = max(0, bisect_right(self._starts, start_ns) - 1)
        last = bisect_right(self._starts, end_ns, first)
        result: List[Sample] = []
        for chunk in self._chunks[first:last]:
            if chunk.end_ns < start_ns:
                continue
            result.extend(chunk.window_samples(start_ns, end_ns))
        return result

    def window_arrays(self, start_ns: int, end_ns: int) -> Tuple[List[int], List[float]]:
        """The window as parallel (timestamps, values) arrays.

        Same samples as :meth:`window`, but as primitive lists built from
        chunk-internal slices — no per-sample object is allocated, which
        is what makes the query engine's range evaluation cheap.
        """
        if end_ns < start_ns:
            raise TsdbError(f"bad window: {start_ns}..{end_ns}")
        first = max(0, bisect_right(self._starts, start_ns) - 1)
        last = bisect_right(self._starts, end_ns, first)
        times: List[int] = []
        values: List[float] = []
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

    def split_before(self, cutoff_ns: int) -> Tuple[List[int], List[float]]:
        """Detach and return every sample with ``t < cutoff_ns``.

        Sample-granular, unlike :meth:`drop_before`: a chunk straddling
        the cutoff is split, so compaction can fold exactly the samples
        below a bucket-aligned horizon and no others.  Returns the
        detached (timestamps, values) parallel arrays in time order.
        """
        times: List[int] = []
        values: List[float] = []
        keep = 0
        while keep < len(self._chunks) and self._chunks[keep].end_ns < cutoff_ns:
            chunk = self._chunks[keep]
            times.extend(chunk._times)
            values.extend(chunk._values)
            keep += 1
        del self._chunks[:keep]
        del self._starts[:keep]
        if self._chunks and self._chunks[0].start_ns < cutoff_ns:
            head = self._chunks[0]
            split = bisect_left(head._times, cutoff_ns)
            if split:
                times.extend(head._times[:split])
                values.extend(head._values[:split])
                rebuilt = Chunk(head._times[split])
                rebuilt._times = head._times[split:]
                rebuilt._values = head._values[split:]
                self._chunks[0] = rebuilt
                self._starts[0] = rebuilt.start_ns
        self._count -= len(times)
        return times, values

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint."""
        return sum(chunk.memory_bytes() for chunk in self._chunks)
