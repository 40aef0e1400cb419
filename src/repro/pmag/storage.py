"""Sharded storage engine: N independent :class:`Tsdb` shards behind one
:class:`~repro.pmag.tsdb.StorageEngine`.

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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TsdbError
from repro.pmag.blocks import BlockPolicy, SeriesRollup, StorageStats
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.model import Labels, Matcher, Sample
from repro.pmag.tsdb import StorageEngine, Tsdb


def series_fingerprint(labels: Labels) -> int:
    """Stable 32-bit fingerprint of a label set.

    CRC32 over the canonical sorted (name, value) pairs with unit/record
    separators, so ``{"a": "b,c"}`` and ``{"a": "b", "c": ""}`` cannot
    collide structurally.  Identical across processes and platforms —
    the property shard routing, WAL recovery and archive restore all
    lean on.
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


def build_storage_engine(
    shards: int,
    retention_ns: Optional[int] = None,
    block_policy: Optional[BlockPolicy] = None,
) -> StorageEngine:
    """Build the engine a config asks for.

    One shard returns a plain :class:`Tsdb` — not a one-shard
    :class:`ShardedTsdb` — so default deployments take the exact code
    path (and produce the exact bytes) they did before sharding existed.
    """
    if shards == 1:
        return Tsdb(retention_ns=retention_ns, block_policy=block_policy)
    return ShardedTsdb(
        shards, retention_ns=retention_ns, block_policy=block_policy
    )


def _labels_key(entry):
    return entry[0].items()


class ShardedTsdb(StorageEngine):
    """Routes each series to one of N :class:`Tsdb` shards.

    Writes are single-shard; reads fan out and merge.  Per-shard
    postings stay small, retention/compaction parallelise naturally (in
    this simulated kernel: shard loops), and every shard can carry its
    own WAL so recovery replays them independently.
    """

    def __init__(
        self,
        shards: int,
        retention_ns: Optional[int] = None,
        block_policy: Optional[BlockPolicy] = None,
    ) -> None:
        if shards < 1:
            raise TsdbError(f"shard count must be >= 1: {shards}")
        self._shards: List[Tsdb] = [
            Tsdb(retention_ns=retention_ns, block_policy=block_policy)
            for _ in range(shards)
        ]
        self.block_policy = block_policy
        self.stats = StorageStats()
        #: Route cache: label set -> shard *index* (not shard object, so
        #: :meth:`adopt_shard` replacing a shard keeps it valid).  The
        #: mapping is a pure function of the labels and the shard count,
        #: so entries never go stale — the cache only grows, bounded by
        #: the distinct label sets seen, like the postings index.
        self._fingerprints: Dict[Labels, int] = {}

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
        tsdb.block_policy = self.block_policy
        self._shards[index] = tsdb

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

    # Bound here, not inherited, so the class carries every ingest entry
    # point by name: one sample and a remote-write frame both go through
    # append_batch.
    append = StorageEngine.append
    append_fingerprinted = StorageEngine.append_fingerprinted

    def append_run(self, labels: Labels, times, values) -> Tuple[int, int]:
        """One series' run, landed whole on the owning shard."""
        return self._route(labels).append_run(labels, times, values)

    def install_series(self, labels: Labels, storage: ChunkedSeries) -> None:
        """Install a fully-built series on its owning shard."""
        self._route(labels).install_series(labels, storage)

    # ------------------------------------------------------------------
    # Selection: fan out, merge sorted
    # ------------------------------------------------------------------
    select = StorageEngine.select

    def select_arrays(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Tuple[Labels, List[int], List[float]]]:
        """Fan-out array select merged back into one sorted result."""
        parts = [s.select_arrays(matchers, start_ns, end_ns)
                 for s in self._shards]
        return list(heap_merge(*parts, key=_labels_key))

    def select_rollups(
        self, matchers: Sequence[Matcher], start_ns: int, end_ns: int
    ) -> List[Tuple[Labels, SeriesRollup]]:
        """Fan-out rollup select merged back into one sorted result."""
        parts = [s.select_rollups(matchers, start_ns, end_ns)
                 for s in self._shards]
        return list(heap_merge(*parts, key=_labels_key))

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
        """Total raw samples, summed over shards."""
        return sum(shard.sample_count() for shard in self._shards)

    def label_values(self, label_name: str) -> List[str]:
        """Distinct label values across all shards."""
        values = set()
        for shard in self._shards:
            values.update(shard.label_values(label_name))
        return sorted(values)

    def memory_bytes(self) -> int:
        """Footprint, summed over shards."""
        return sum(shard.memory_bytes() for shard in self._shards)

    def series_items(self) -> Iterable[Tuple[Labels, ChunkedSeries]]:
        """All series, shard 0 first — the v3 archive layout order."""
        for shard in self._shards:
            yield from shard.series_items()

    def has_rollups(self) -> bool:
        """Whether any shard carries downsampled buckets."""
        return any(shard.has_rollups() for shard in self._shards)

    def storage_stats(self) -> dict:
        """Per-shard layout plus summed compaction counters.

        ``downsampled_reads_total`` lives on this engine's own ``stats``
        (the query engine talks to the façade, not to shards), so it is
        merged in alongside the per-shard compaction counters.
        """
        merged = StorageStats()
        for shard in self._shards:
            merged.merge(shard.stats)
        merged.merge(self.stats)
        return {
            "shards": len(self._shards),
            "per_shard": [shard.shard_stats() for shard in self._shards],
            "compactions_total": merged.compactions_total,
            "samples_compacted_total": merged.samples_compacted_total,
            "bytes_saved_total": merged.bytes_saved_total,
            "downsampled_reads_total": merged.downsampled_reads_total,
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

    def compact(self, now_ns: int) -> int:
        """Compact every shard; returns samples folded."""
        return sum(shard.compact(now_ns) for shard in self._shards)
