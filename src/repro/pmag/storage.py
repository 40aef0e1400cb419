"""The two storage engines and the contract they share.

:class:`~repro.pmag.tsdb.Tsdb` is one store; :class:`ShardedTsdb` routes
each series to one of N of them.  :data:`StorageEngine` names either,
and everything above — scrape ingest, the query engine, rules,
dashboards, archive, WAL, remote-write — calls the methods both classes
carry, so shard count is configuration, not surgery.  Both engines keep
four invariants, so the layers above stay engine-agnostic:

* ``select_arrays`` (and ``select``, its :class:`Sample` view) return
  series sorted by ``labels.items()`` — the merge key the sharded
  engine preserves.  Each ``select_arrays`` entry is ``(labels, times,
  values, reset_free)``; the last field says the window's values are
  NaN-free and nondecreasing, read from per-chunk facts
  (:mod:`repro.pmag.chunks`), and only the counter functions use it;
* appends are per-series monotonic (out-of-order rejected), so WAL
  replay is idempotent regardless of how series are routed;
* ``storage_stats()`` returns the shape the ``teemon_storage_*``
  self-telemetry renders: shard count and per-shard series/sample
  counts;
* every :class:`~repro.pmag.tsdb.ArrivalFeed` attached with
  ``attach_feed`` gets each commit's accepted entries (``append_batch``,
  ``append_run``) as one list, in commit order, and any other change to
  the stored samples raises its ``unsure_below_ns`` past the newest
  timestamp the change may have touched.  Accepted entries must not be
  mutated after the commit.  With no feed attached, a commit pays one
  empty-list check.

``retention_ns`` and ``total_appends`` read as attributes on both
(properties summed or shared over the shards on the sharded engine).
The entry points written once in terms of the others (``append``,
``append_sample``, ``append_fingerprinted``, ``select``,
``select_metric``, ``metric_names``) are :class:`Tsdb` functions that
:class:`ShardedTsdb` binds by name, so every entry point is an
attribute of each engine class itself.

Each series lives on exactly one shard, chosen by a *stable* fingerprint
of its label set (CRC32 over the canonical sorted pairs — Python's own
``hash`` is salted per process and would scatter series differently on
every run, breaking deterministic replay and crash recovery).  Ingest
touches one shard; selects fan out to all shards and merge the per-shard
results — each already sorted by ``labels.items()`` — back into the
monolith's wire shape, so the query engine, rules and dashboards cannot
tell the difference (the equivalence property tests pin this down
byte-for-byte).

Durability attaches per shard: one WAL directory per shard, replayed
independently on recovery (see :func:`repro.pmag.wal.recover_sharded`).
"""

from __future__ import annotations

import zlib
from heapq import merge as heap_merge
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import TsdbError
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.model import Labels, Matcher, Sample
from repro.pmag.tsdb import ArrivalFeed, Tsdb


def series_fingerprint(labels: Labels) -> int:
    """Stable 32-bit fingerprint of a label set.

    CRC32 over the canonical sorted (name, value) pairs with unit/record
    separators.  Identical across processes and platforms — the property
    shard routing, WAL recovery and archive restore all lean on.  It is
    not an identity: label values may hold the separators, so distinct
    label sets can collide (``{a="b\\x1ec\\x1f"}`` and ``{a="b", c=""}``
    under one name do), and any two may collide by chance.  A collision
    only puts two series on the same shard; the frame decoder's
    fingerprint check is an integrity check, and series are keyed by
    their labels everywhere.
    """
    digest = 0
    for name, value in labels.items():
        digest = zlib.crc32(name.encode("utf-8"), digest)
        digest = zlib.crc32(b"\x1f", digest)
        digest = zlib.crc32(value.encode("utf-8"), digest)
        digest = zlib.crc32(b"\x1e", digest)
    return digest


def shard_for(labels: Labels, shards: int) -> int:
    """The shard index a series routes to."""
    return series_fingerprint(labels) % shards


def _labels_key(entry):
    return entry[0].items()


class ShardedTsdb:
    """Routes each series to one of N :class:`Tsdb` shards.

    Writes are single-shard; reads fan out and merge.  Per-shard
    postings stay small, retention parallelises naturally (in
    this simulated kernel: shard loops), and every shard can carry its
    own WAL so recovery replays them independently.
    """

    def __init__(self, shards: int, retention_ns: Optional[int] = None) -> None:
        if shards < 1:
            raise TsdbError(f"shard count must be >= 1: {shards}")
        self._shards: List[Tsdb] = [
            Tsdb(retention_ns=retention_ns) for _ in range(shards)
        ]
        #: Route cache: label set -> shard *index* (not shard object, so
        #: :meth:`adopt_shard` replacing a shard keeps it valid).  The
        #: mapping is a pure function of the labels and the shard count,
        #: so entries never go stale — the cache only grows, bounded by
        #: the distinct label sets seen, like the postings index.
        self._fingerprints: Dict[Labels, int] = {}
        #: Feeds attached through this façade: each is on every shard.
        self._feeds: List[ArrivalFeed] = []

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return len(self._shards)

    def shard(self, index: int) -> Tsdb:
        """Direct access to one shard (checkpoints, tests, telemetry)."""
        return self._shards[index]

    def _route(self, labels: Labels) -> Tsdb:
        index = self._fingerprints.get(labels)
        if index is None:
            index = series_fingerprint(labels) % len(self._shards)
            self._fingerprints[labels] = index
        return self._shards[index]

    def adopt_shard(self, index: int, tsdb: Tsdb) -> None:
        """Replace one shard with a recovered store (WAL recovery path).

        Every series in the adopted store must fingerprint to ``index``
        under the current shard count — restoring a layout written with
        a different ``storage_shards`` would silently mis-route future
        appends, so it fails loudly instead.
        """
        shards = len(self._shards)
        for labels, _storage in tsdb.series_items():
            actual = series_fingerprint(labels) % shards
            if actual != index:
                raise TsdbError(
                    f"series {labels!r} routes to shard {actual}, not {index}: "
                    f"was this layout written with a different shard count?"
                )
        tsdb.retention_ns = self.retention_ns
        self._shards[index] = tsdb
        for feed in self._feeds:
            # The adopted samples never passed through the feed.
            tsdb.attach_feed(feed)
            feed.doubt()

    @property
    def retention_ns(self) -> Optional[int]:
        """Retention horizon, uniform across shards."""
        return self._shards[0].retention_ns

    @retention_ns.setter
    def retention_ns(self, value: Optional[int]) -> None:
        for shard in self._shards:
            shard.retention_ns = value

    @property
    def total_appends(self) -> int:
        """Lifetime accepted appends, summed over shards."""
        return sum(shard.total_appends for shard in self._shards)

    def attach_wal(self, wal) -> None:
        raise TsdbError(
            "a sharded engine needs one WAL per shard: use attach_wals()"
        )

    def attach_wals(self, wals: Sequence) -> None:
        """Attach one write-ahead log per shard, in shard order."""
        if len(wals) != len(self._shards):
            raise TsdbError(
                f"need {len(self._shards)} WALs, got {len(wals)}"
            )
        for shard, wal in zip(self._shards, wals):
            shard.attach_wal(wal)

    def attach_feed(self, feed: ArrivalFeed) -> None:
        """Attach one feed to every shard: each pushes its sub-batches."""
        self._feeds.append(feed)
        for shard in self._shards:
            shard.attach_feed(feed)

    def detach_feed(self, feed: ArrivalFeed) -> None:
        """Detach ``feed`` from every shard."""
        if feed in self._feeds:
            self._feeds.remove(feed)
        for shard in self._shards:
            shard.detach_feed(feed)

    # ------------------------------------------------------------------
    # Ingest: route to one shard
    # ------------------------------------------------------------------
    def append_batch(
        self, entries: Sequence[Tuple[Labels, int, float]]
    ) -> List[int]:
        """Group one commit's samples by shard in one routing pass.

        Each shard then ingests its sub-batch with one
        :meth:`Tsdb.append_batch` call (amortised WAL write-through).
        Within a shard entry order is preserved, and series never span
        shards, so accept/reject outcomes match the monolith's exactly;
        rejected positions are mapped back to indices into ``entries``.
        """
        shards = self._shards
        count = len(shards)
        cache = self._fingerprints
        buckets: List[Optional[list]] = [None] * count
        for entry in entries:
            labels = entry[0]
            index = cache.get(labels)
            if index is None:
                index = series_fingerprint(labels) % count
                cache[labels] = index
            bucket = buckets[index]
            if bucket is None:
                buckets[index] = bucket = []
            bucket.append(entry)
        sub_rejected: Dict[int, set] = {}
        for index, bucket in enumerate(buckets):
            if bucket:
                bad = shards[index].append_batch(bucket)
                if bad:
                    sub_rejected[index] = set(bad)
        if not sub_rejected:
            return []
        # Rare path: map each shard's sub-batch positions back to the
        # caller's indices by replaying the routing order.
        rejected: List[int] = []
        positions = [0] * count
        for i, entry in enumerate(entries):
            index = cache[entry[0]]
            position = positions[index]
            positions[index] = position + 1
            bad = sub_rejected.get(index)
            if bad and position in bad:
                rejected.append(i)
        return rejected

    # One sample and a remote-write frame both go through append_batch.
    append = Tsdb.append
    append_sample = Tsdb.append_sample
    append_fingerprinted = Tsdb.append_fingerprinted

    def append_run(self, labels: Labels, times, values) -> Tuple[int, int]:
        """One series' run, landed whole on the owning shard."""
        return self._route(labels).append_run(labels, times, values)

    def install_series(self, labels: Labels, storage: ChunkedSeries) -> None:
        """Install a fully-built series on its owning shard."""
        self._route(labels).install_series(labels, storage)

    # ------------------------------------------------------------------
    # Selection: fan out, merge sorted
    # ------------------------------------------------------------------
    select = Tsdb.select
    select_metric = Tsdb.select_metric

    def select_arrays(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Tuple[Labels, List[int], List[float], bool]]:
        """Fan-out array select merged back into one sorted result."""
        parts = [s.select_arrays(matchers, start_ns, end_ns)
                 for s in self._shards]
        return list(heap_merge(*parts, key=_labels_key))

    select_rollups = Tsdb.select_rollups

    def latest(self, metric: str, **label_filters: str) -> Optional[Sample]:
        """Newest matching sample across every shard.

        Applies the monolith's tie-break (smallest ``labels.items()``)
        across shard winners, so the answer is shard-layout invariant.
        """
        best: Optional[Sample] = None
        best_key = None
        for shard in self._shards:
            key, sample = shard.latest_keyed(metric, **label_filters)
            if sample is None:
                continue
            if (best is None or sample.time_ns > best.time_ns
                    or (sample.time_ns == best.time_ns and key < best_key)):
                best = sample
                best_key = key
        return best

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def series_count(self) -> int:
        """Distinct series, summed over shards (each lives on exactly one)."""
        return sum(shard.series_count() for shard in self._shards)

    def sample_count(self) -> int:
        """Total samples, summed over shards."""
        return sum(shard.sample_count() for shard in self._shards)

    def label_values(self, label_name: str) -> List[str]:
        """Distinct label values across all shards."""
        values = set()
        for shard in self._shards:
            values.update(shard.label_values(label_name))
        return sorted(values)

    metric_names = Tsdb.metric_names

    def memory_bytes(self) -> int:
        """Footprint, summed over shards."""
        return sum(shard.memory_bytes() for shard in self._shards)

    def series_items(self) -> Iterable[Tuple[Labels, ChunkedSeries]]:
        """All series, shard 0 first — the order a snapshot writes."""
        for shard in self._shards:
            yield from shard.series_items()

    def storage_stats(self) -> dict:
        """Shard count and per-shard layout."""
        return {
            "shards": len(self._shards),
            "per_shard": [shard.shard_stats() for shard in self._shards],
        }

    # ------------------------------------------------------------------
    # Maintenance: every shard
    # ------------------------------------------------------------------
    def delete_series(self, matchers: Sequence[Matcher]) -> int:
        """Drop matching series on every shard; returns series deleted."""
        return sum(shard.delete_series(matchers) for shard in self._shards)

    def enforce_retention(self, now_ns: int) -> int:
        """Apply retention on every shard; returns samples dropped."""
        return sum(shard.enforce_retention(now_ns) for shard in self._shards)

    compact = Tsdb.compact


#: Either engine: every layer above storage takes one of these.
StorageEngine = Union[Tsdb, ShardedTsdb]


def build_storage_engine(
    shards: int, retention_ns: Optional[int] = None
) -> StorageEngine:
    """Build the engine a config asks for.

    One shard returns a plain :class:`Tsdb` — not a one-shard
    :class:`ShardedTsdb` — so default deployments take the exact code
    path (and produce the exact bytes) they did before sharding existed.
    """
    if shards == 1:
        return Tsdb(retention_ns=retention_ns)
    return ShardedTsdb(shards, retention_ns=retention_ns)
