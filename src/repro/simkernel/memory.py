"""Virtual-memory model: address spaces, frames and page faults.

The model is page-granular (4 KiB).  Each process owns a sparse page table
of mapped pages backed by physical frames (:meth:`VirtualMemory.map_range`
populates it eagerly, as ``mmap`` with ``MAP_POPULATE`` would).  Page
faults are accounted per simulation slice:
:meth:`VirtualMemory.account_faults` records a batch of faults for a
process and fires the instruments TEEMon watches
(``exceptions:page_fault_user`` / ``page_fault_kernel`` tracepoints and the
``PERF_COUNT_SW_PAGE_FAULTS`` perf event).

The fault tracepoint carries a ``fault_kind`` field with the four user-space
fault classes the paper's Figure 11(a) breaks out: ``no_page_found``,
``write_prot_fault``, ``write_fault`` and ``instr_fetch_fault``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.errors import MemoryError_
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry

PAGE_SIZE = 4096
PAGE_SHIFT = 12


class FaultKind(enum.Enum):
    """User-space page-fault classes reported in Figure 11(a)."""

    NO_PAGE_FOUND = "no_page_found"
    WRITE_PROT_FAULT = "write_prot_fault"
    WRITE_FAULT = "write_fault"
    INSTR_FETCH_FAULT = "instr_fetch_fault"

    @property
    def code(self) -> int:
        """Stable integer code (eBPF map key)."""
        return _FAULT_KIND_CODES[self]


_FAULT_KIND_CODES = {
    FaultKind.NO_PAGE_FOUND: 0,
    FaultKind.WRITE_PROT_FAULT: 1,
    FaultKind.WRITE_FAULT: 2,
    FaultKind.INSTR_FETCH_FAULT: 3,
}

FAULT_KIND_BY_CODE = {kind.code: kind for kind in FaultKind}


def pages_for_bytes(size_bytes: int) -> int:
    """Number of 4 KiB pages needed to hold ``size_bytes``."""
    if size_bytes < 0:
        raise MemoryError_(f"negative size: {size_bytes}")
    return (size_bytes + PAGE_SIZE - 1) >> PAGE_SHIFT


@dataclass
class PhysicalMemory:
    """A pool of physical frames."""

    total_frames: int
    allocated: int = 0

    @property
    def free_frames(self) -> int:
        """Frames not currently handed out."""
        return self.total_frames - self.allocated

    def allocate(self, count: int = 1) -> None:
        """Take ``count`` frames from the pool."""
        if count < 0:
            raise MemoryError_(f"negative frame count: {count}")
        if self.allocated + count > self.total_frames:
            raise MemoryError_(
                f"out of physical memory: want {count}, free {self.free_frames}"
            )
        self.allocated += count

    def release(self, count: int = 1) -> None:
        """Return ``count`` frames to the pool."""
        if count < 0 or count > self.allocated:
            raise MemoryError_(f"bad release of {count} frames ({self.allocated} allocated)")
        self.allocated -= count


@dataclass
class AddressSpace:
    """Sparse page table for one process."""

    pid: int
    mapped_pages: Set[int] = field(default_factory=set)

    @property
    def rss_pages(self) -> int:
        """Resident pages."""
        return len(self.mapped_pages)


class VirtualMemory:
    """Host-wide virtual memory manager."""

    def __init__(
        self,
        clock: VirtualClock,
        hooks: HookRegistry,
        total_bytes: int,
    ) -> None:
        self._clock = clock
        self._hooks = hooks
        self.physical = PhysicalMemory(total_frames=pages_for_bytes(total_bytes))
        self._spaces: Dict[int, AddressSpace] = {}
        self._user_faults = 0
        self._kernel_faults = 0

    @property
    def user_faults(self) -> int:
        """Host-wide user-space faults since boot."""
        return self._user_faults

    @property
    def kernel_faults(self) -> int:
        """Host-wide kernel-space faults since boot."""
        return self._kernel_faults

    @property
    def total_faults(self) -> int:
        """All page faults (user + kernel) since boot."""
        return self._user_faults + self._kernel_faults

    def create_space(self, pid: int) -> AddressSpace:
        """Create the address space for a new process."""
        if pid in self._spaces:
            raise MemoryError_(f"address space already exists for pid {pid}")
        space = AddressSpace(pid=pid)
        self._spaces[pid] = space
        return space

    def destroy_space(self, pid: int) -> None:
        """Tear down a process's address space, freeing its frames."""
        space = self.space(pid)
        self.physical.release(len(space.mapped_pages))
        del self._spaces[pid]

    def space(self, pid: int) -> AddressSpace:
        """Look up the address space of ``pid``."""
        try:
            return self._spaces[pid]
        except KeyError:
            raise MemoryError_(f"no address space for pid {pid}") from None

    def map_range(self, pid: int, start_page: int, num_pages: int) -> None:
        """Eagerly map a contiguous range (mmap with MAP_POPULATE)."""
        if num_pages < 0:
            raise MemoryError_(f"negative page count: {num_pages}")
        space = self.space(pid)
        new_pages = [
            p for p in range(start_page, start_page + num_pages)
            if p not in space.mapped_pages
        ]
        self.physical.allocate(len(new_pages))
        space.mapped_pages.update(new_pages)

    # ------------------------------------------------------------------
    def account_faults(
        self,
        pid: int,
        count: int,
        kind: FaultKind = FaultKind.NO_PAGE_FOUND,
        kernel: bool = False,
    ) -> None:
        """Record a batch of ``count`` faults attributed to ``pid``."""
        if count <= 0:
            return
        if kernel:
            self._fire_kernel_fault(pid, count)
        else:
            self._fire_user_fault(pid, kind, count)

    # ------------------------------------------------------------------
    def _fire_user_fault(self, pid: int, kind: FaultKind, count: int) -> None:
        self._user_faults += count
        now = self._clock.now_ns
        self._hooks.fire(
            "exceptions:page_fault_user",
            now,
            count=count,
            pid=pid,
            fault_kind=kind.value,
            fault_kind_code=kind.code,
        )
        self._hooks.fire("PERF_COUNT_SW_PAGE_FAULTS", now, count=count, pid=pid)

    def _fire_kernel_fault(self, pid: int, count: int) -> None:
        self._kernel_faults += count
        now = self._clock.now_ns
        self._hooks.fire(
            "exceptions:page_fault_kernel", now, count=count, pid=pid
        )
        self._hooks.fire("PERF_COUNT_SW_PAGE_FAULTS", now, count=count, pid=pid)
