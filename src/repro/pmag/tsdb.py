"""The time-series database: :class:`Tsdb`, the one labelled store.

Every layer above — scrape ingest, queries, rules, dashboards, archive,
WAL, remote-write — reads and writes this index; ``storage_shards``
partitions the write-ahead log (:class:`repro.pmag.wal.ShardedWal`), not
the index.  Three invariants the layers above lean on:

* ``select_arrays`` returns series sorted by ``labels.items()``, each
  entry ``(labels, times, values, reset_free)``; the flag says the
  window is NaN-free and nondecreasing, read from per-chunk facts
  (:mod:`repro.pmag.chunks`), and only the counter functions use it;
* appends are per-series monotonic (out-of-order rejected), so WAL
  replay is idempotent;
* every attached :class:`ArrivalFeed` gets each commit's accepted
  entries (``append_batch``, ``append_run``) as one list, in commit
  order, and any other change to the stored samples raises its
  ``unsure_below_ns`` past the newest timestamp it may have touched.
  Accepted entries must not be mutated after the commit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import TsdbError
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.model import (
    Labels, Matcher, METRIC_NAME_LABEL, Sample, Series, sample_of,
)


#: Past every int64 timestamp: the expiry floor of a store holding nothing.
_NEVER_NS = 1 << 63


class ArrivalFeed:
    """What the store accepted since its reader last drained the feed.

    ``batches`` holds each commit's accepted ``(labels, time_ns, value)``
    entries by reference, in commit order: the store appends, the
    reader takes them away.  Samples can also leave the store without
    passing through here (retention, ``delete_series``) or
    land around it (``install_series``), so the store raises
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


class Tsdb:
    """Labelled time-series storage with an inverted label index.

    Append-only per series (out-of-order appends are rejected, as in
    Prometheus), with chunk-granular retention and a postings-style index:
    for every (label name, value) pair, the set of series carrying it.
    Selection intersects postings for equality matchers, then filters the
    survivors with the remaining matchers.
    """

    def __init__(self, *, retention_ns: Optional[int] = None) -> None:
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

    def append_sample(
        self, metric: str, time_ns: int, value: float, **labels: str
    ) -> None:
        """:meth:`append` by metric name and keyword labels
        (:meth:`Labels.of`)."""
        self.append(Labels.of(metric, **labels), time_ns, value)

    def append_batch(
        self, entries: Sequence[Tuple[Labels, int, float]]
    ) -> List[int]:
        """The ingest body every writer commits through: one commit's
        samples — a scrape body, a rule step, a remote-write frame — in a
        single store call.

        Returns the indices (into ``entries``) of rejected samples —
        out-of-order appends, missing metric names, unstorable values —
        in ascending order; everything else was accepted.  Entries are
        applied in order, so the outcome per series does not depend on
        how a writer groups its samples into batches.

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
        a series.  Returns ``(appended, rejected)``; columns of
        different lengths raise.
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

    def append_fingerprinted(
        self,
        blocks: Sequence[Tuple[int, Labels, Sequence[Tuple[int, float]]]],
    ) -> int:
        """Ingest one remote-write frame's ``(fingerprint, labels,
        samples)`` blocks; returns the number of rejected samples.

        The blocks flatten into one :meth:`append_batch`.  The
        fingerprints go unread: the frame decoder has already checked
        each against its labels.
        """
        return len(self.append_batch([
            (labels, time_ns, value)
            for _fingerprint, labels, samples in blocks
            for time_ns, value in samples
        ]))

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

    def select(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Series]:
        """All series matching every matcher, with samples in the window:
        :meth:`select_arrays` with each column pair zipped into samples."""
        return [
            Series(labels, list(map(sample_of, zip(times, values))))
            for labels, times, values, _reset_free in self.select_arrays(
                matchers, start_ns, end_ns)
        ]

    def select_arrays(
        self,
        matchers: Sequence[Matcher],
        start_ns: int,
        end_ns: int,
    ) -> List[Tuple[Labels, List[int], List[float], bool]]:
        """Matching series, sorted by ``labels.items()``, each with the
        window's samples as parallel (timestamps, values) arrays — no
        :class:`Sample` per point — and whether those values are
        reset-free (:meth:`ChunkedSeries.window_arrays`).  The query
        engine reads through this; the counter functions take the flag.
        """
        if end_ns < start_ns:
            raise TsdbError(f"bad window: {start_ns}..{end_ns}")
        result: List[Tuple[Labels, List[int], List[float], bool]] = []
        for labels in self._matching_series(matchers):
            times, values, reset_free = self._series[labels].window_arrays(
                start_ns, end_ns)
            if times:
                result.append((labels, times, values, reset_free))
        result.sort(key=lambda entry: entry[0].items())
        return result

    def select_rollups(self, matchers, start_ns, end_ns) -> list:
        """Always empty: the store keeps raw samples only.  The name
        stays because ``benchmarks/e2e/tracing.py`` wraps it."""
        return []

    def latest(self, metric: str, **label_filters: str) -> Optional[Sample]:
        """Newest sample of the best series matching name + filters.

        Timestamp ties break towards the smallest ``labels.items()`` —
        a total order, so the answer is independent of index iteration
        order.
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
        return best

    def select_metric(
        self, metric: str, start_ns: int, end_ns: int, **label_filters: str
    ) -> List[Series]:
        """Select by metric name plus equality label filters."""
        matchers = [Matcher.eq(METRIC_NAME_LABEL, metric)]
        matchers.extend(Matcher.eq(k, v) for k, v in label_filters.items())
        return self.select(matchers, start_ns, end_ns)

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

    def metric_names(self) -> List[str]:
        """All metric names with at least one series."""
        return self.label_values(METRIC_NAME_LABEL)

    def memory_bytes(self) -> int:
        """Approximate storage footprint."""
        return sum(s.memory_bytes() for s in self._series.values())

    def series_items(self) -> Iterable[Tuple[Labels, ChunkedSeries]]:
        """Every (labels, raw storage) pair in insertion order.

        Insertion order is the archive's byte-identity contract:
        snapshots of the same ingest sequence must encode series in the
        same order, so their bodies — and, deflated alike, their files —
        are identical.
        """
        return self._series.items()

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
        name stays because ``benchmarks/e2e/tracing.py`` wraps it."""
        return 0
