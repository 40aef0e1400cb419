"""Reference uplink collect: the window read from the store, every flush.

:class:`ReferenceClient` is :class:`RemoteWriteClient` with the collect
it had before the arrival feed: each flush runs one ``select_arrays``
over ``(collected watermark, now]`` (series sorted by ``labels.items()``)
and sorts the window's samples stably by timestamp.  Everything else —
frame cutting, ``end_ns``, the ship filter, sequence numbers, the queue,
late-arrival clamps, the durable cursors — is the production code, so a
differential test against it isolates what the feed changed.  It never
attaches a feed, so it never catches up either.
"""

from itertools import repeat
from operator import itemgetter

from repro.pmag.remote_write import RemoteWriteClient


class ReferenceClient(RemoteWriteClient):
    """An uplink client that reads every collect window from the store."""

    def _window(self, now_ns):
        entries = []
        ship = self.ship_filter
        for labels, times, values, _reset_free in self._tsdb.select_arrays(
                [], self._collected_ns + 1, now_ns):
            if ship is None or ship(labels):
                entries.extend(zip(repeat(labels), times, values))
        entries.sort(key=itemgetter(1))
        return entries
