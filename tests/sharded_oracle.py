"""Reference sharded storage: N whole stores, one WAL directory each.

:class:`ShardedTsdb` is the engine ``storage_shards`` used to build
before the index became one :class:`~repro.pmag.tsdb.Tsdb` and only the
write-ahead log was split.  It routes each series to one of N stores,
each with its own :class:`~repro.pmag.wal.WalWriter` in ``shard-NN``,
checkpoints each store on its own and recovers each directory with
:func:`repro.pmag.wal.recover` before adopting the result.  The
production partitioned log (:class:`repro.pmag.wal.ShardedWal`,
:func:`repro.pmag.wal.recover_sharded`) must leave the same bytes on the
medium, recover the same samples and report the same loss, partition
for partition; ``tests/test_storage_engine.py`` holds the two together.
One directory's recovery is production :func:`~repro.pmag.wal.recover`
on both sides — ``tests/test_wal_machine.py`` holds that to a model —
so what this oracle pins is the layout: which series each directory
logs, checkpoints and gets back.
"""

from heapq import merge as heap_merge
from typing import Dict, List, Optional, Sequence

from repro.errors import TsdbError
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import (
    RecoveryReport,
    WalWriter,
    _sum_reports,
    recover,
    shard_directory,
)


def _labels_key(entry):
    return entry[0].items()


class ShardedTsdb:
    """Routes each series to one of N :class:`Tsdb` shards.

    Writes are single-shard; reads fan out and merge back into the
    order one store answers in.
    """

    def __init__(self, shards: int, retention_ns: Optional[int] = None) -> None:
        if shards < 1:
            raise TsdbError(f"shard count must be >= 1: {shards}")
        self._shards: List[Tsdb] = [
            Tsdb(retention_ns=retention_ns) for _ in range(shards)
        ]
        #: Route cache: label set -> shard index.
        self._fingerprints: Dict = {}

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard(self, index: int) -> Tsdb:
        return self._shards[index]

    def _route(self, labels) -> Tsdb:
        index = self._fingerprints.get(labels)
        if index is None:
            index = series_fingerprint(labels) % len(self._shards)
            self._fingerprints[labels] = index
        return self._shards[index]

    def adopt_shard(self, index: int, tsdb: Tsdb) -> None:
        """Replace one shard with a recovered store; every series in it
        must route to ``index``."""
        shards = len(self._shards)
        for labels, _storage in tsdb.series_items():
            actual = series_fingerprint(labels) % shards
            if actual != index:
                raise TsdbError(
                    f"series {labels!r} routes to shard {actual}, not {index}"
                )
        tsdb.retention_ns = self._shards[0].retention_ns
        self._shards[index] = tsdb

    @property
    def total_appends(self) -> int:
        return sum(shard.total_appends for shard in self._shards)

    def attach_wals(self, wals: Sequence) -> None:
        """Attach one write-ahead log per shard, in shard order."""
        for shard, wal in zip(self._shards, wals):
            shard.attach_wal(wal)

    def append_batch(self, entries) -> List[int]:
        """Group one commit by shard; each shard ingests its sub-batch
        with one :meth:`Tsdb.append_batch`.  Rejected positions are
        mapped back to indices into ``entries``."""
        shards = self._shards
        count = len(shards)
        cache = self._fingerprints
        buckets: List[list] = [[] for _ in range(count)]
        for entry in entries:
            labels = entry[0]
            index = cache.get(labels)
            if index is None:
                index = cache[labels] = series_fingerprint(labels) % count
            buckets[index].append(entry)
        sub_rejected: Dict[int, set] = {}
        for index, bucket in enumerate(buckets):
            if bucket:
                bad = shards[index].append_batch(bucket)
                if bad:
                    sub_rejected[index] = set(bad)
        rejected: List[int] = []
        if not sub_rejected:
            return rejected
        positions = [0] * count
        for i, entry in enumerate(entries):
            index = cache[entry[0]]
            position = positions[index]
            positions[index] = position + 1
            if position in sub_rejected.get(index, ()):
                rejected.append(i)
        return rejected

    append = Tsdb.append
    append_sample = Tsdb.append_sample

    def append_run(self, labels, times, values):
        return self._route(labels).append_run(labels, times, values)

    def install_series(self, labels, storage) -> None:
        self._route(labels).install_series(labels, storage)

    select = Tsdb.select

    def select_arrays(self, matchers, start_ns: int, end_ns: int) -> list:
        """Fan-out array select merged back into one sorted result."""
        return list(heap_merge(
            *(s.select_arrays(matchers, start_ns, end_ns)
              for s in self._shards),
            key=_labels_key))

    def series_count(self) -> int:
        return sum(shard.series_count() for shard in self._shards)

    def sample_count(self) -> int:
        return sum(shard.sample_count() for shard in self._shards)

    def series_items(self):
        """All series, shard 0 first — the order a snapshot writes."""
        for shard in self._shards:
            yield from shard.series_items()

    def delete_series(self, matchers) -> int:
        return sum(shard.delete_series(matchers) for shard in self._shards)

    def enforce_retention(self, now_ns: int) -> int:
        return sum(shard.enforce_retention(now_ns) for shard in self._shards)


class ShardedWal:
    """One :class:`WalWriter` per shard: flushed and checkpointed
    shard by shard."""

    def __init__(self, writers: Sequence[WalWriter]) -> None:
        self.writers = list(writers)

    def append_cursor(self, key: str, cursor_ns: int) -> None:
        self.writers[0].append_cursor(key, cursor_ns)

    def flush(self) -> None:
        for writer in self.writers:
            writer.flush()

    def checkpoint(self, engine: ShardedTsdb) -> List[str]:
        return [writer.checkpoint(engine.shard(index))
                for index, writer in enumerate(self.writers)]


def open_log(disk, directory: str, engine: ShardedTsdb,
             flush_every_records: int = 0,
             segment_max_records: int = 4096) -> ShardedWal:
    """One writer per ``shard-NN`` directory, attached shard by shard."""
    writers = [
        WalWriter(disk, shard_directory(directory, index),
                  flush_every_records, segment_max_records)
        for index in range(engine.shard_count)
    ]
    engine.attach_wals(writers)
    return ShardedWal(writers)


def recover_sharded(disk, directory: str, shards: int,
                    retention_ns: Optional[int] = None, crash_report=None,
                    plan=None):
    """One independent :func:`recover` per shard directory, adopted."""
    engine = ShardedTsdb(shards, retention_ns=retention_ns)
    reports: List[RecoveryReport] = []
    for index in range(shards):
        tsdb, report = recover(
            disk, shard_directory(directory, index),
            retention_ns=retention_ns, crash_report=crash_report, plan=plan)
        engine.adopt_shard(index, tsdb)
        reports.append(report)
    return engine, _sum_reports(reports)
