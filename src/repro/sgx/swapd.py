"""The ``ksgxswapd`` kernel thread.

When the EPC runs low, the SGX driver's background thread ages pages
(*mark old*), evicts them (EWB), and wakes up again when pressure returns.
The paper calls it out explicitly: host-wide context switches include
"context switches to the ksgxswapd (Intel SGX swapping daemon) process"
(§6.5), which is part of why host-wide switch counts exceed per-process
ones in Figure 11(f).

The model keeps the driver's watermark policy: when free pages fall below
``low_watermark``, evict from the largest enclave until ``high_watermark``
is free.  Every batch of evictions costs the daemon CPU time and context
switches, which are attributed to its kernel thread so the eBPF context-
switch counters see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SgxError
from repro.sgx.epc import EpcRegion
from repro.simkernel.kernel import Kernel
from repro.simkernel.process import Process

#: Eviction batch size used by the Linux SGX driver.
EVICTION_BATCH_PAGES = 16

#: Daemon CPU cost per evicted page (aging walk + EWB issue), ns.
SWAPD_COST_PER_PAGE_NS = 3_000


@dataclass
class SwapdStats:
    """Cumulative daemon activity."""

    wakeups: int = 0
    pages_evicted: int = 0


class Ksgxswapd:
    """Background EPC reclaimer."""

    def __init__(
        self,
        kernel: Kernel,
        epc: EpcRegion,
        low_watermark_pages: Optional[int] = None,
        high_watermark_pages: Optional[int] = None,
    ) -> None:
        self._kernel = kernel
        self._epc = epc
        # Linux driver defaults: wake below ~1.5% free, reclaim to ~3%.
        self.low_watermark_pages = (
            low_watermark_pages
            if low_watermark_pages is not None
            else max(32, epc.total_pages // 64)
        )
        self.high_watermark_pages = (
            high_watermark_pages
            if high_watermark_pages is not None
            else max(64, epc.total_pages // 32)
        )
        if self.high_watermark_pages < self.low_watermark_pages:
            raise SgxError("high watermark below low watermark")
        self.stats = SwapdStats()
        self.process: Process = kernel.spawn_process("ksgxswapd")
        self._thread = next(iter(self.process.threads.values()))

    def reclaim(self, want_pages: int = 0) -> int:
        """Evict until the high watermark (or ``want_pages``) is free.

        Returns the number of pages evicted.  Charges the daemon CPU time
        and context switches: one voluntary switch pair per wakeup plus one
        per eviction batch, which is what makes heavy paging visible in
        host-wide switch counts.
        """
        target = max(self.high_watermark_pages, want_pages)
        evicted_total = 0
        if self._epc.free_pages >= target:
            return 0
        self.stats.wakeups += 1
        switches = 2  # wake + sleep
        while self._epc.free_pages < target:
            victim = self._epc.largest_resident_enclave()
            if victim is None:
                break
            batch = min(
                EVICTION_BATCH_PAGES, target - self._epc.free_pages
            )
            self._epc.mark_old(victim, batch)
            evicted = self._epc.evict_pages(victim, batch)
            if evicted == 0:
                break
            evicted_total += evicted
            switches += 1
        if evicted_total:
            self.stats.pages_evicted += evicted_total
            self._kernel.scheduler.account_cpu_time(
                self._thread, SWAPD_COST_PER_PAGE_NS * evicted_total
            )
            # Kernel-side faults for the EWB write-back path.
            self._kernel.memory.account_faults(
                self.process.pid, max(1, evicted_total // EVICTION_BATCH_PAGES),
                kernel=True,
            )
        self._kernel.scheduler.account_switches(self.process.pid, switches)
        return evicted_total
