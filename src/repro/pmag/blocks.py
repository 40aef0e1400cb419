"""Block lifecycle: downsampled rollups behind the storage engine.

The TSDB's raw head holds full-resolution samples in
:class:`~repro.pmag.chunks.ChunkedSeries`.  Once samples age past
``downsample_after``, compaction folds them — at block granularity —
into a :class:`SeriesRollup`: per fixed-width time bucket, the
``min``/``max``/``sum``/``count`` aggregates plus the first and last
sample of the bucket.  The raw samples are dropped (that is the bytes
saved), and wide-window queries over old data read a handful of buckets
instead of thousands of samples.

Exactness is the design constraint, not an afterthought.  Buckets are
half-open ``[b·R, (b+1)·R)`` intervals, compaction horizons are always
bucket-aligned, and every folded sample lands in exactly one bucket —
so for a query window ``[s, e]`` whose bounds are multiples of the
resolution ``R``:

* buckets starting in ``[s, e - R]`` lie entirely inside the window;
* the only sample of bucket ``e`` that the window can include is one at
  exactly ``e`` — which is the bucket's recorded *first* sample if its
  timestamp equals ``e``, else nothing.

:meth:`SeriesRollup.window_aggregate` composes those pieces into an
aggregate that is *equal* to evaluating the raw samples, which is what
lets the query engine substitute rollups for raw data transparently
(and what the equivalence tests pin down).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TsdbError


@dataclass(frozen=True)
class BlockPolicy:
    """When and how the storage engine compacts raw data.

    ``block_range_ns`` is the width of one block — compaction horizons
    and block-granular retention cuts are aligned down to multiples of
    it.  Samples older than ``downsample_after_ns`` are folded into
    rollup buckets of ``resolution_ns`` width.  The block range must be
    a whole number of buckets so horizons never split a bucket (the
    alignment that makes rollup reads exact).
    """

    block_range_ns: int
    downsample_after_ns: int
    resolution_ns: int

    def __post_init__(self) -> None:
        if self.block_range_ns <= 0:
            raise TsdbError(f"block range must be positive: {self.block_range_ns}")
        if self.downsample_after_ns <= 0:
            raise TsdbError(
                f"downsample horizon must be positive: {self.downsample_after_ns}"
            )
        if self.resolution_ns <= 0:
            raise TsdbError(f"resolution must be positive: {self.resolution_ns}")
        if self.block_range_ns % self.resolution_ns:
            raise TsdbError(
                f"block range {self.block_range_ns} is not a multiple of the "
                f"downsample resolution {self.resolution_ns}"
            )


@dataclass
class StorageStats:
    """Mutable counters behind the ``teemon_storage_*`` self-telemetry."""

    #: Compaction passes that folded at least the horizon check.
    compactions_total: int = 0
    #: Raw samples folded into rollup buckets (and dropped from raw).
    samples_compacted_total: int = 0
    #: Approximate bytes the fold released (raw footprint minus the
    #: rollup growth); the "what did downsampling buy" number.
    bytes_saved_total: int = 0
    #: Range-function evaluations served from rollups instead of raw.
    downsampled_reads_total: int = 0

    def merge(self, other: "StorageStats") -> None:
        """Fold another stats object into this one (shard aggregation)."""
        self.compactions_total += other.compactions_total
        self.samples_compacted_total += other.samples_compacted_total
        self.bytes_saved_total += other.bytes_saved_total
        self.downsampled_reads_total += other.downsampled_reads_total


class WindowAggregate(NamedTuple):
    """Exact aggregate of one series over one query window.

    A NamedTuple rather than a (frozen) dataclass: the query engine
    builds one per series per step on the downsampled read path, and
    tuple construction is several times cheaper than guarded
    ``object.__setattr__`` field assignment.
    """

    count: int
    minimum: float
    maximum: float
    total: float
    last_time_ns: int
    last_value: float

    def merge(self, other: Optional["WindowAggregate"]) -> "WindowAggregate":
        """Combine with another disjoint window aggregate (exact)."""
        if other is None or other.count == 0:
            return self
        if self.count == 0:
            return other
        newer = self if self.last_time_ns >= other.last_time_ns else other
        return WindowAggregate(
            count=self.count + other.count,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
            total=self.total + other.total,
            last_time_ns=newer.last_time_ns,
            last_value=newer.last_value,
        )


#: An empty window: merged with anything it is the identity.
EMPTY_AGGREGATE = WindowAggregate(
    count=0, minimum=float("inf"), maximum=float("-inf"),
    total=0.0, last_time_ns=-1, last_value=0.0,
)


def aggregate_arrays(
    times: Sequence[int], values: Sequence[float], start_ns: int, end_ns: int
) -> WindowAggregate:
    """Exact aggregate of raw parallel arrays over ``[start_ns, end_ns]``."""
    low = bisect_left(times, start_ns)
    high = bisect_right(times, end_ns, low)
    if low >= high:
        return EMPTY_AGGREGATE
    window = values[low:high]
    return WindowAggregate(
        count=high - low,
        minimum=min(window),
        maximum=max(window),
        total=sum(window),
        last_time_ns=times[high - 1],
        last_value=values[high - 1],
    )


class SeriesRollup:
    """Downsampled buckets of one series, append-only like the raw head.

    Parallel arrays, one entry per *non-empty* bucket, ordered by bucket
    start.  ``fold`` absorbs raw samples (which arrive time-ordered and
    strictly after everything already folded); ``window_aggregate``
    serves aligned windows exactly (see the module docstring);
    ``drop_before`` is the retention hook.
    """

    __slots__ = (
        "resolution_ns", "_starts", "_mins", "_maxs", "_sums", "_counts",
        "_first_times", "_first_values", "_last_times", "_last_values",
    )

    def __init__(self, resolution_ns: int) -> None:
        if resolution_ns <= 0:
            raise TsdbError(f"resolution must be positive: {resolution_ns}")
        self.resolution_ns = resolution_ns
        self._starts: List[int] = []
        self._mins: List[float] = []
        self._maxs: List[float] = []
        self._sums: List[float] = []
        self._counts: List[int] = []
        self._first_times: List[int] = []
        self._first_values: List[float] = []
        self._last_times: List[int] = []
        self._last_values: List[float] = []

    @property
    def bucket_count(self) -> int:
        """Number of non-empty buckets."""
        return len(self._starts)

    @property
    def sample_count(self) -> int:
        """Raw samples folded into the rollup (and no longer raw)."""
        return sum(self._counts)

    def last_time_ns(self) -> Optional[int]:
        """Timestamp of the newest folded sample, if any."""
        return self._last_times[-1] if self._last_times else None

    def fold(self, times: Sequence[int], values: Sequence[float]) -> None:
        """Absorb raw samples; they must be newer than anything folded."""
        if not times:
            return
        last = self.last_time_ns()
        if last is not None and times[0] <= last:
            raise TsdbError(
                f"out-of-order fold: {times[0]} <= {last}"
            )
        resolution = self.resolution_ns
        starts = self._starts
        for time_ns, value in zip(times, values):
            bucket = time_ns - time_ns % resolution
            if starts and starts[-1] == bucket:
                index = len(starts) - 1
                if value < self._mins[index]:
                    self._mins[index] = value
                if value > self._maxs[index]:
                    self._maxs[index] = value
                self._sums[index] += value
                self._counts[index] += 1
                self._last_times[index] = time_ns
                self._last_values[index] = value
            else:
                starts.append(bucket)
                self._mins.append(value)
                self._maxs.append(value)
                self._sums.append(value)
                self._counts.append(1)
                self._first_times.append(time_ns)
                self._first_values.append(value)
                self._last_times.append(time_ns)
                self._last_values.append(value)

    def window_aggregate(self, start_ns: int, end_ns: int) -> WindowAggregate:
        """Exact aggregate over ``[start_ns, end_ns]``, both multiples of
        the resolution.  Callers guarantee the alignment; the composition
        below is only exact because of it."""
        starts = self._starts
        low = bisect_left(starts, start_ns)
        # Full buckets: starts in [start_ns, end_ns - resolution].  Both
        # bounds and every start are multiples of the resolution, so the
        # bisect at end_ns is exactly the last full bucket's successor.
        high = bisect_left(starts, end_ns, low)
        if low < high:
            count = sum(self._counts[low:high])
            minimum = min(self._mins[low:high])
            maximum = max(self._maxs[low:high])
            total = sum(self._sums[low:high])
            last_time_ns = self._last_times[high - 1]
            last_value = self._last_values[high - 1]
        else:
            count = 0
            minimum = maximum = total = 0.0
            last_time_ns = -1
            last_value = 0.0
        # The bucket starting exactly at end_ns contributes at most its
        # first sample — and only if that sample sits exactly on end_ns.
        if (
            high < len(starts)
            and starts[high] == end_ns
            and self._first_times[high] == end_ns
        ):
            value = self._first_values[high]
            if count:
                count += 1
                if value < minimum:
                    minimum = value
                if value > maximum:
                    maximum = value
                total += value
            else:
                count = 1
                minimum = maximum = total = value
            last_time_ns = end_ns
            last_value = value
        if count == 0:
            return EMPTY_AGGREGATE
        return WindowAggregate(
            count, minimum, maximum, total, last_time_ns, last_value
        )

    def first_bucket_end_ns(self) -> int:
        """Newest sample of the oldest bucket: what a retention cutoff
        must pass before :meth:`drop_before` drops anything.  There must
        be a bucket."""
        return self._last_times[0]

    def drop_before(self, cutoff_ns: int) -> int:
        """Retention: drop buckets whose newest sample predates the cut.

        Returns the folded sample count released.  Only a prefix can be
        dropped (buckets are time-ordered), mirroring the chunk-granular
        raw retention.
        """
        keep = 0
        while keep < len(self._starts) and self._last_times[keep] < cutoff_ns:
            keep += 1
        if keep == 0:
            return 0
        dropped = sum(self._counts[:keep])
        for attr in self.__slots__:
            if attr.startswith("_"):
                del getattr(self, attr)[:keep]
        return dropped

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of the bucket arrays."""
        return 32 + len(self._starts) * 9 * 8
