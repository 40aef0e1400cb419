"""Reference ingest: ``Tsdb.append_batch`` with every entry through
``ChunkedSeries.append``.

:class:`ReferenceTsdb` is :class:`Tsdb` with the batch body it had
before the head-chunk fast path: per entry, the metric-name check, the
series lookup, :meth:`ChunkedSeries.append` (where the rejection rules
live) and, for a new series, the index.  It keeps the store's running
sample total the same way the store does.  Everything else — the WAL and
feed write-through, retention, the index — is the production code, so a
differential test against it isolates what the fast path changed.
"""

from typing import List, Optional, Sequence, Tuple

from repro.errors import TsdbError
from repro.pmag.chunks import ChunkedSeries
from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb


class ReferenceTsdb(Tsdb):
    """A store whose batches take the general append path, entry by
    entry."""

    def append_batch(
        self, entries: Sequence[Tuple[Labels, int, float]]
    ) -> List[int]:
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
                storage = ChunkedSeries(self._stamps)
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
        self._samples += appended
        if accepted:
            if wal is not None:
                wal.commit(accepted)
            for feed in feeds:
                feed.batches.append(accepted)
        return rejected
