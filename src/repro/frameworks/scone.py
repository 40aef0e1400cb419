"""The SCONE runtime model.

"SCONE leverages an asynchronous system call mechanism: threads inside of
the enclave execute tasks of the application, pushing system calls to the
outside of the enclave.  Threads outside of the enclave asynchronously
execute the system calls and push results back." (§3.2)

:class:`AsyncSyscallQueue` implements that mechanism: enclave-side
producers enqueue requests into a bounded lock-free-style ring, outside
worker threads drain it in batches and dispatch to the kernel.  No enclave
exit happens on the syscall path — the queue is shared memory — but the
workers' wakeups are futex traffic, which is why SCONE's syscall mix is
futex-heavy (Figure 6).

The runtime supports the two §6.4 code-evolution commits:

* ``572bd1a5`` — ``clock_gettime`` goes through the syscall queue to the
  kernel: ~1.38 calls per request (370 k/s at 268 K IOP/s);
* ``09fea91`` — ``clock_gettime`` handled inside the enclave; at most ~100
  stragglers per second reach the kernel, and throughput roughly doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Deque, Optional, Tuple
from collections import deque

from repro.calibration.profiles import SCONE_CALIBRATION, FrameworkCalibration
from repro.errors import FrameworkError
from repro.frameworks.base import SgxFramework
from repro.simkernel.kernel import Kernel

#: The two commits of §6.4, oldest first.
COMMIT_BEFORE = "572bd1a5"
COMMIT_AFTER = "09fea91"

#: Cost of pushing one syscall through the async queue and getting the
#: result back (no enclave exit), ns.  Calibrated from the Fig. 7 delta:
#: removing ~1.38 clock_gettime queue trips per request roughly doubled
#: throughput (3.73 us -> 1.61 us per request).
QUEUE_TRIP_COST_NS = 1_390

#: clock_gettime queue trips per request before the fix.
CLOCK_GETTIME_PER_REQUEST_BEFORE = 1.38


@dataclass
class QueueStats:
    """Cumulative async-queue activity."""

    enqueued: int = 0
    executed: int = 0
    batches: int = 0
    max_depth: int = 0


class AsyncSyscallQueue:
    """Bounded request ring between enclave and outside worker threads."""

    def __init__(self, kernel: Kernel, owner_pid: int, capacity: int = 1024,
                 worker_threads: int = 4, batch_size: int = 32) -> None:
        if capacity <= 0 or worker_threads <= 0 or batch_size <= 0:
            raise FrameworkError("queue parameters must be positive")
        self._kernel = kernel
        self._owner_pid = owner_pid
        self.capacity = capacity
        self.worker_threads = worker_threads
        self.batch_size = batch_size
        self._pending: Deque[Tuple[str, int]] = deque()
        self.stats = QueueStats()

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return sum(count for _, count in self._pending)

    def enqueue(self, name: str, count: int) -> None:
        """Enclave side: push ``count`` requests of syscall ``name``."""
        if count <= 0:
            return
        self._pending.append((name, count))
        self.stats.enqueued += count
        self.stats.max_depth = max(self.stats.max_depth, self.depth)

    def drain(self) -> int:
        """Outside workers: execute everything pending; returns cost in ns.

        Each batch is one worker wakeup — a futex round trip charged as a
        futex syscall, which is what makes SCONE futex-heavy under load.
        Requests of one syscall are dispatched as a single multi-count
        batch (one hook firing with the full multiplicity), with the
        wakeup futexes accounted for the number of batch_size windows the
        workers needed.
        """
        total_cost = 0
        wakeups = 0
        while self._pending:
            name, count = self._pending.popleft()
            total_cost += self._kernel.syscalls.dispatch(
                name, self._owner_pid, count=count
            )
            self.stats.executed += count
            batches = (count + self.batch_size - 1) // self.batch_size
            self.stats.batches += batches
            wakeups += batches
        if wakeups:
            # Worker wakeups: futex wait/wake pairs.
            total_cost += self._kernel.syscalls.dispatch(
                "futex", self._owner_pid, count=wakeups
            )
        return total_cost


class SconeRuntime(SgxFramework):
    """SCONE: whole app in the enclave, asynchronous syscalls."""

    def __init__(
        self,
        version: str = COMMIT_AFTER,
        calibration: Optional[FrameworkCalibration] = None,
    ) -> None:
        if version not in (COMMIT_BEFORE, COMMIT_AFTER):
            raise FrameworkError(
                f"unknown SCONE commit {version!r}; "
                f"known: {COMMIT_BEFORE}, {COMMIT_AFTER}"
            )
        base = calibration or SCONE_CALIBRATION
        if version == COMMIT_BEFORE:
            # Pre-fix: every clock_gettime is a queue trip to the kernel.
            base = replace(
                base,
                request_cost_ns=base.request_cost_ns
                + CLOCK_GETTIME_PER_REQUEST_BEFORE * QUEUE_TRIP_COST_NS,
                syscalls_per_request=tuple(
                    (name, CLOCK_GETTIME_PER_REQUEST_BEFORE if name == "clock_gettime" else rate)
                    for name, rate in base.syscalls_per_request
                ),
            )
        super().__init__(base)
        self.version = version
        self.queue: Optional[AsyncSyscallQueue] = None

    def setup(self, kernel, app_name="redis-server", container_id=None):
        process = super().setup(kernel, app_name, container_id)
        self.queue = AsyncSyscallQueue(kernel, process.pid)
        return process

    def _dispatch_syscalls(self, name: str, count: int) -> int:
        if self.queue is None:
            raise FrameworkError("scone: not set up")
        if name == "clock_gettime" and self.version == COMMIT_AFTER:
            # Handled inside the enclave; only a trickle reaches the kernel.
            # The calibrated per-request rate already reflects this.
            pass
        self.queue.enqueue(name, count)
        return self.queue.drain() + QUEUE_TRIP_COST_NS * count
