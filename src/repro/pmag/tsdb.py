"""The time-series database.

Storage is pluggable behind :class:`StorageEngine`: :class:`Tsdb` (this
module) is the single-shard implementation, and
:class:`repro.pmag.storage.ShardedTsdb` fans the same interface out over
N of them.  Everything above — scrape ingest, the query engine, rules,
dashboards, archive, WAL — talks to the interface, so shard count is
configuration, not surgery.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import TsdbError
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.model import (
    Labels, Matcher, METRIC_NAME_LABEL, Sample, Series, sample_of,
)


#: Past every int64 timestamp: the expiry floor of a store holding nothing.
_NEVER_NS = 1 << 63


class ArrivalFeed:
    """What an engine accepted since its reader last drained the feed.

    ``batches`` holds each commit's accepted ``(labels, time_ns, value)``
    entries by reference, in commit order: the engine appends, the
    reader takes them away.  Samples can also leave the store without
    passing through here (retention, ``delete_series``) or
    land around it (``install_series``), so the engine raises
    ``unsure_below_ns`` to cover them: below that timestamp the store may
    differ from what the feed has shown since the reader last reset it.
    """

    __slots__ = ("batches", "unsure_below_ns")

    def __init__(self) -> None:
        self.batches: List[List[Tuple[Labels, int, float]]] = []
        self.unsure_below_ns = 0

    def doubt(self, below_ns: int = _NEVER_NS) -> None:
        """The store may have changed below ``below_ns`` (by default:
        anywhere) without the feed seeing it."""
        if self.unsure_below_ns < below_ns:
            self.unsure_below_ns = below_ns


class StorageEngine(ABC):
    """What the rest of the stack needs from time-series storage.

    Implementations must keep three wire-shape invariants so the layers
    above stay engine-agnostic:

    * ``select_arrays`` (and ``select``, its :class:`Sample` view)
      return series sorted by ``labels.items()`` — the merge key sharded
      engines must preserve;
    * appends are per-series monotonic (out-of-order rejected), so WAL
      replay is idempotent regardless of how series are routed;
    * ``storage_stats()`` returns the shape the ``teemon_storage_*``
      self-telemetry renders: shard count and per-shard series/sample
      counts;
    * every :class:`ArrivalFeed` attached with :meth:`attach_feed` gets
      each commit's accepted entries (``append_batch``, ``append_run``)
      as one list, in commit order, and any other change to the stored
      samples raises its ``unsure_below_ns`` past the newest timestamp
      the change may have touched.  Accepted entries must not be
      mutated after the commit.  With no feed attached, a commit pays
      one empty-list check.

    The attributes ``retention_ns`` and ``total_appends`` are part of
    the interface as plain attributes.
    """

    retention_ns: Optional[int]
    total_appends: int

    # -- ingest --------------------------------------------------------
    def append(self, labels: Labels, time_ns: int, value: float) -> None:
        """Append one sample — :meth:`append_batch` of one — raising
        :class:`TsdbError` if it is rejected.  For hand-written samples:
        every writer in the stack commits a batch."""
        if self.append_batch([(labels, time_ns, value)]):
            raise TsdbError(
                f"series needs a {METRIC_NAME_LABEL} label: {labels!r}"
                if not labels.metric_name else
                f"out-of-order or unstorable append to {labels!r}: "
                f"{time_ns!r}, {value!r}")

    @abstractmethod
    def install_series(self, labels: Labels, storage: ChunkedSeries) -> None:
        """Install a fully-built series (archive/WAL restore fast path)."""

    @abstractmethod
    def attach_wal(self, wal) -> None:
        """Write successful appends through to a write-ahead log."""

    @abstractmethod
    def attach_feed(self, feed: ArrivalFeed) -> None:
        """Push every commit's accepted entries into ``feed``."""

    @abstractmethod
    def detach_feed(self, feed: ArrivalFeed) -> None:
        """Stop pushing into ``feed`` (absent: nothing to do)."""

    def append_sample(
        self, metric: str, time_ns: int, value: float, **labels: str
    ) -> None:
        """:meth:`append` by metric name and keyword labels
        (:meth:`Labels.of`)."""
        self.append(Labels.of(metric, **labels), time_ns, value)

    @abstractmethod
    def append_batch(
        self, entries: Sequence[Tuple[Labels, int, float]]
    ) -> List[int]:
        """Append one commit's samples — a scrape body, a rule step, a
        remote-write frame — in a single engine call.

        Returns the indices (into ``entries``) of rejected samples —
        out-of-order appends, missing metric names, unstorable values —
        in ascending order; everything else was accepted.  Entries are
        applied in order, so the outcome per series does not depend on
        how a writer groups its samples into batches.
        """

    @abstractmethod
    def append_run(self, labels: Labels, times, values) -> Tuple[int, int]:
        """Append one series' samples, given as parallel columns, in
        order; returns ``(appended, rejected)``.  The outcome per sample
        is that of :meth:`append_batch`; columns of different lengths
        raise."""

    def append_fingerprinted(
        self,
        blocks: Sequence[Tuple[int, Labels, Sequence[Tuple[int, float]]]],
    ) -> int:
        """Ingest one remote-write frame's ``(fingerprint, labels,
        samples)`` blocks; returns the number of rejected samples.

        The blocks flatten into one :meth:`append_batch`, which routes by
        labels.  The fingerprints go unread: the frame decoder has already
        checked each against its labels.
        """
        return len(self.append_batch([
            (labels, time_ns, value)
            for _fingerprint, labels, samples in blocks
            for time_ns, value in samples
        ]))

    # -- selection -----------------------------------------------------
    def select(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Series]:
        """All series matching every matcher, with samples in the window:
        :meth:`select_arrays` with each column pair zipped into samples.
        Both engines bind it in their class bodies, so every read entry
        point is an attribute of the engine class itself."""
        return [
            Series(labels, list(map(sample_of, zip(times, values))))
            for labels, times, values in self.select_arrays(
                matchers, start_ns, end_ns)
        ]

    @abstractmethod
    def select_arrays(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Tuple[Labels, List[int], List[float]]]:
        """All series matching every matcher, with the window's samples as
        parallel (timestamps, values) arrays, sorted by ``labels.items()``."""

    @abstractmethod
    def latest(self, metric: str, **label_filters: str) -> Optional[Sample]:
        """Newest sample of the best series matching name + filters."""

    def select_metric(
        self, metric: str, start_ns: int, end_ns: int, **label_filters: str
    ) -> List[Series]:
        """Select by metric name plus equality label filters."""
        matchers = [Matcher.eq(METRIC_NAME_LABEL, metric)]
        matchers.extend(Matcher.eq(k, v) for k, v in label_filters.items())
        return self.select(matchers, start_ns, end_ns)

    # -- introspection -------------------------------------------------
    @abstractmethod
    def series_count(self) -> int:
        """Number of distinct series."""

    @abstractmethod
    def sample_count(self) -> int:
        """Total stored samples."""

    @abstractmethod
    def label_values(self, label_name: str) -> List[str]:
        """Distinct values of one label across all series."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Approximate storage footprint."""

    @abstractmethod
    def series_items(self) -> Iterable[Tuple[Labels, ChunkedSeries]]:
        """Every (labels, raw storage) pair, in stable insertion order."""

    @abstractmethod
    def storage_stats(self) -> dict:
        """Shard layout (self-telemetry shape)."""

    def metric_names(self) -> List[str]:
        """All metric names with at least one series."""
        return self.label_values(METRIC_NAME_LABEL)

    @property
    @abstractmethod
    def shard_count(self) -> int:
        """Number of shards behind this engine (1 for the monolith)."""

    # -- maintenance ---------------------------------------------------
    @abstractmethod
    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        """Admin API: drop every series matching all matchers."""

    @abstractmethod
    def enforce_retention(self, now_ns: int) -> int:
        """Drop data older than the retention horizon; returns samples dropped."""


class Tsdb(StorageEngine):
    """Labelled time-series storage with an inverted label index.

    Append-only per series (out-of-order appends are rejected, as in
    Prometheus), with chunk-granular retention and a postings-style index:
    for every (label name, value) pair, the set of series carrying it.
    Selection intersects postings for equality matchers, then filters the
    survivors with the remaining matchers.
    """

    def __init__(self, retention_ns: Optional[int] = None) -> None:
        self._series: Dict[Labels, ChunkedSeries] = {}
        self._postings: Dict[tuple, Set[Labels]] = {}
        self.retention_ns = retention_ns
        self.total_appends = 0
        self._wal = None
        self._feeds: List[ArrivalFeed] = []
        #: Retention's low-water mark: no chunk can expire until the
        #: cutoff passes this.  A lower bound on every series' first
        #: chunk end — exact after a retention scan, lowered (never
        #: raised) by whatever lands in between.
        self._expiry_floor_ns = _NEVER_NS

    def attach_wal(self, wal) -> None:
        """Write successful appends through to a write-ahead log.

        The log is notified *after* the in-memory append succeeds, so
        rejected samples (out-of-order, bad labels) never reach the WAL
        and replay is free of known-bad records.
        """
        self._wal = wal

    def attach_feed(self, feed: ArrivalFeed) -> None:
        """Push every commit's accepted entries into ``feed``."""
        self._feeds.append(feed)

    def detach_feed(self, feed: ArrivalFeed) -> None:
        """Stop pushing into ``feed`` (absent: nothing to do)."""
        if feed in self._feeds:
            self._feeds.remove(feed)

    def _doubt(self, below_ns: int = _NEVER_NS) -> None:
        """:meth:`ArrivalFeed.doubt` on every attached feed."""
        for feed in self._feeds:
            feed.doubt(below_ns)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    append = StorageEngine.append

    def append_batch(
        self, entries: Sequence[Tuple[Labels, int, float]]
    ) -> List[int]:
        """The ingest body every writer commits through.

        Per entry, in order: chunk append, and series creation — a
        series exists from its first accepted sample on.  Accepted
        samples reach the WAL as one
        :meth:`WalWriter.append_many` batch: flush and rotation
        boundaries are counted in samples, so they do not depend on the
        batching, but the log costs a few disk writes per commit instead
        of one per sample.  The same list goes to every attached feed.
        """
        series = self._series
        wal = self._wal
        feeds = self._feeds
        accepted: Optional[List[Tuple[Labels, int, float]]] = (
            [] if wal is not None or feeds else None
        )
        rejected: List[int] = []
        appended = 0
        floor = self._expiry_floor_ns
        for index, entry in enumerate(entries):
            labels, time_ns, value = entry
            if not labels.metric_name:
                rejected.append(index)
                continue
            storage = series.get(labels)
            fresh = storage is None
            if fresh:
                storage = ChunkedSeries()
            try:
                storage.append(time_ns, value)
            except TsdbError:
                rejected.append(index)
                continue
            if fresh:
                self._index(labels, storage)
            appended += 1
            if time_ns < floor:
                floor = time_ns
            if accepted is not None:
                accepted.append(entry)
        self._expiry_floor_ns = floor
        self.total_appends += appended
        if accepted:
            if wal is not None:
                wal.append_many(accepted)
            for feed in feeds:
                feed.batches.append(accepted)
        return rejected

    def append_run(self, labels: Labels, times, values) -> Tuple[int, int]:
        """One series' samples as parallel columns: the semantics of
        :meth:`append_batch` — accept/reject, series creation, WAL and
        feed write-through of what was accepted — with the series
        looked up once and the columns filled by
        :meth:`ChunkedSeries.append_run`.  This is how WAL replay lands
        a series.  Returns ``(appended, rejected)``.
        """
        count = len(times)
        if not labels.metric_name:
            return 0, count
        storage = self._series.get(labels)
        fresh = storage is None
        if fresh:
            storage = ChunkedSeries()
        rejected = storage.append_run(times, values)
        appended = count - len(rejected)
        if not appended:
            return 0, count
        if fresh:
            self._index(labels, storage)
        self.total_appends += appended
        self._expiry_floor_ns = min(
            self._expiry_floor_ns, storage.first_chunk_end_ns())
        if self._wal is not None or self._feeds:
            skip = set(rejected)
            accepted = [
                (labels, time_ns, value)
                for index, (time_ns, value) in enumerate(zip(times, values))
                if index not in skip
            ]
            if self._wal is not None:
                self._wal.append_many(accepted)
            for feed in self._feeds:
                feed.batches.append(accepted)
        return appended, len(rejected)

    def _index(self, labels: Labels, storage: ChunkedSeries) -> None:
        """Enter a series into the store and the postings."""
        self._series[labels] = storage
        for pair in labels.items():
            self._postings.setdefault(pair, set()).add(labels)

    def install_series(self, labels: Labels, storage: ChunkedSeries) -> None:
        """Install a fully-built series (the archive/WAL restore fast path).

        Bypasses per-sample appends: the chunk layout of ``storage`` is
        preserved exactly, so a restored database is byte-identical to the
        snapshotted one under further chunk-granular operations (retention,
        re-snapshot).  Restored samples count towards ``total_appends``
        so ingest totals stay monotonic across a crash/restore cycle.
        The samples bypass attached feeds, which are told so.
        """
        if not labels.metric_name:
            raise TsdbError(f"series needs a {METRIC_NAME_LABEL} label: {labels!r}")
        if labels in self._series:
            raise TsdbError(f"series already exists: {labels!r}")
        self._index(labels, storage)
        self._doubt()
        self.total_appends += storage.sample_count
        if storage.sample_count:
            self._expiry_floor_ns = min(
                self._expiry_floor_ns, storage.first_chunk_end_ns())

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _candidates(
        self, matchers: Sequence[Matcher]
    ) -> Tuple[Iterable[Labels], List[Matcher]]:
        """Candidate series for ``matchers`` plus the residual matchers.

        Equality matchers with a non-empty value are resolved through the
        postings index and need not be re-applied.  Everything else — and
        crucially equality matchers with an *empty* value, which in
        Prometheus semantics match series *lacking* the label and therefore
        have no postings entry to intersect — is returned as a residual
        that callers must post-filter with :meth:`Matcher.matches`.
        """
        indexed = [m for m in matchers if m.op == "=" and m.value]
        residual = [m for m in matchers if not (m.op == "=" and m.value)]
        if not indexed:
            return list(self._series), residual
        sets = []
        for matcher in indexed:
            postings = self._postings.get((matcher.name, matcher.value))
            if not postings:
                return [], residual
            sets.append(postings)
        smallest = min(sets, key=len)
        candidates = [
            labels for labels in smallest
            if all(labels in s for s in sets if s is not smallest)
        ]
        return candidates, residual

    def _matching_series(self, matchers: Sequence[Matcher]) -> Iterator[Labels]:
        """Series surviving postings intersection *and* residual filters.

        The shared candidate/residual loop behind ``select``,
        ``select_arrays``, ``latest`` and ``delete_series`` — unsorted;
        callers that need the wire order sort their materialised results.
        """
        candidates, residual = self._candidates(matchers)
        if not residual:
            yield from candidates
            return
        for labels in candidates:
            if all(m.matches(labels) for m in residual):
                yield labels

    select = StorageEngine.select

    def select_arrays(
        self,
        matchers: Sequence[Matcher],
        start_ns: int,
        end_ns: int,
    ) -> List[Tuple[Labels, List[int], List[float]]]:
        """Matching series, sorted by ``labels.items()``, each with the
        window's samples as parallel (timestamps, values) arrays — no
        :class:`Sample` per point.  The query engine reads through this.
        """
        if end_ns < start_ns:
            raise TsdbError(f"bad window: {start_ns}..{end_ns}")
        result: List[Tuple[Labels, List[int], List[float]]] = []
        for labels in self._matching_series(matchers):
            times, values = self._series[labels].window_arrays(start_ns, end_ns)
            if times:
                result.append((labels, times, values))
        result.sort(key=lambda entry: entry[0].items())
        return result

    def select_rollups(self, matchers, start_ns, end_ns) -> list:
        """Always empty: the store keeps raw samples only.  The name
        stays because ``benchmarks/e2e/tracing.py`` wraps it on both
        engines."""
        return []

    def latest(self, metric: str, **label_filters: str) -> Optional[Sample]:
        """Newest sample of the best series matching name + filters.

        Timestamp ties break towards the smallest ``labels.items()`` —
        a total order, so the answer is independent of index iteration
        order and of how series are sharded.
        """
        return self.latest_keyed(metric, **label_filters)[1]

    def latest_keyed(
        self, metric: str, **label_filters: str
    ) -> Tuple[Optional[tuple], Optional[Sample]]:
        """:meth:`latest` plus the winning series' sort key (items tuple).

        The key lets a sharded engine apply the same tie-break across
        shards without re-deriving which series won.
        """
        matchers = [Matcher.eq(METRIC_NAME_LABEL, metric)]
        matchers.extend(Matcher.eq(k, v) for k, v in label_filters.items())
        best: Optional[Sample] = None
        best_key = None
        for labels in self._matching_series(matchers):
            sample = self._series[labels].last_sample()
            if sample is None:
                continue
            key = labels.items()
            if (best is None or sample.time_ns > best.time_ns
                    or (sample.time_ns == best.time_ns and key < best_key)):
                best = sample
                best_key = key
        return best_key, best

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    def series_count(self) -> int:
        """Number of distinct series."""
        return len(self._series)

    def sample_count(self) -> int:
        """Total stored samples."""
        return sum(s.sample_count for s in self._series.values())

    def label_values(self, label_name: str) -> List[str]:
        """Distinct values of one label across all series."""
        return sorted({
            value for (name, value) in self._postings if name == label_name
        })

    def memory_bytes(self) -> int:
        """Approximate storage footprint."""
        return sum(s.memory_bytes() for s in self._series.values())

    def series_items(self) -> Iterable[Tuple[Labels, ChunkedSeries]]:
        """Every (labels, raw storage) pair in insertion order.

        Insertion order is the archive's byte-identity contract: v2
        snapshots of the same ingest sequence must encode series in the
        same order.
        """
        return self._series.items()

    @property
    def shard_count(self) -> int:
        """The monolith is its own single shard."""
        return 1

    def storage_stats(self) -> dict:
        """Single-shard stats in the engine-wide telemetry shape."""
        return {
            "shards": 1,
            "per_shard": [self.shard_stats()],
        }

    def shard_stats(self) -> dict:
        """This store's contribution to the per-shard telemetry."""
        return {"series": len(self._series), "samples": self.sample_count()}

    def _unindex(self, labels: Labels) -> None:
        """Remove a dead series: storage and postings entries."""
        self._series.pop(labels, None)
        for pair in labels.items():
            postings = self._postings.get(pair)
            if postings is not None:
                postings.discard(labels)
                if not postings:
                    del self._postings[pair]

    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        """Admin API: drop every series matching all matchers.

        Returns the number of series deleted.  Mirrors Prometheus's
        ``delete_series`` admin endpoint — used to purge a misbehaving
        exporter's data or a mis-labelled ingest.
        """
        victims = list(self._matching_series(matchers))
        for labels in victims:
            self._unindex(labels)
        if victims:
            self._doubt()
        return len(victims)

    def enforce_retention(self, now_ns: int) -> int:
        """Drop data older than the retention horizon; returns samples dropped.

        The cut is chunk-granular.  A pass whose cutoff has not reached
        the expiry floor looks at no series.
        """
        if self.retention_ns is None:
            return 0
        cutoff = now_ns - self.retention_ns
        if cutoff <= self._expiry_floor_ns:
            # Nothing stored ends before the cutoff: the common pass, on
            # every scrape cycle, that has nothing to expire.
            return 0
        dropped = 0
        floor = _NEVER_NS
        empty: List[Labels] = []
        for labels, storage in self._series.items():
            dropped += storage.drop_before(cutoff)
            if storage.sample_count:
                floor = min(floor, storage.first_chunk_end_ns())
            else:
                empty.append(labels)
        for labels in empty:
            self._unindex(labels)
        self._expiry_floor_ns = floor
        if dropped:
            # Whole chunks ending before the cutoff.
            self._doubt(cutoff)
        return dropped

    def compact(self, now_ns: int) -> int:
        """Nothing to fold: retention is the store's only lifecycle.  The
        name stays because ``benchmarks/e2e/tracing.py`` wraps it on both
        engines."""
        return 0
