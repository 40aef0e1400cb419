"""Page-cache model exposing the Table-2 kprobe sites.

TEEMon's cache metrics come from four kprobes on the Linux page cache:
``add_to_page_cache_lru``, ``mark_page_accessed``,
``account_page_dirtied`` and ``mark_buffer_dirty``.  The model is driven
per simulation slice: :meth:`PageCache.account_activity` records a batch
of file reads and writes and fires those kprobes from the same causes the
kernel would — an insertion per read miss, a page touch per read hit, and
a page plus buffer-head dirtying per write.  It keeps no page residency:
TEEMon only reads the counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemoryError_
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry


@dataclass
class PageCacheStats:
    """Cumulative page-cache activity counters."""

    insertions: int = 0
    hits: int = 0
    misses: int = 0
    dirtied: int = 0

    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class PageCache:
    """Read/write activity counters of the host's file-page cache."""

    def __init__(self, clock: VirtualClock, hooks: HookRegistry) -> None:
        self._clock = clock
        self._hooks = hooks
        self.stats = PageCacheStats()

    def account_activity(
        self,
        pid: int,
        reads: int = 0,
        writes: int = 0,
        hit_ratio: float = 0.95,
    ) -> None:
        """Record a batch of file-page reads and writes.

        ``hit_ratio`` models how much of the read traffic the cache absorbs;
        misses produce insertions (``add_to_page_cache_lru``), hits produce
        ``mark_page_accessed``.
        """
        if not 0.0 <= hit_ratio <= 1.0:
            raise MemoryError_(f"hit ratio out of range: {hit_ratio}")
        now = self._clock.now_ns
        if reads > 0:
            hits = int(reads * hit_ratio)
            misses = reads - hits
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.insertions += misses
            if hits:
                self._hooks.fire("mark_page_accessed", now, count=hits, pid=pid)
            if misses:
                self._hooks.fire("add_to_page_cache_lru", now, count=misses, pid=pid)
        if writes > 0:
            self.stats.dirtied += writes
            self._hooks.fire("account_page_dirtied", now, count=writes, pid=pid)
            self._hooks.fire("mark_buffer_dirty", now, count=writes, pid=pid)
