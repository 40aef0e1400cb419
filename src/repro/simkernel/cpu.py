"""CPU last-level-cache model.

TEEMon reads two hardware perf events: ``PERF_COUNT_HW_CACHE_REFERENCES``
and ``PERF_COUNT_HW_CACHE_MISSES``.  The model here produces both.

Two driving styles are supported, mirroring the rest of the kernel:

* an **exact** LRU cache over cache-line addresses
  (:meth:`LlcModel.access_line`) for fine-grained tests, and
* an **analytic** batch mode (:meth:`LlcModel.access_working_set`) used by
  the workloads: given a working-set size and an access count, the expected
  miss ratio of a fully-associative LRU cache under uniform access is
  ``max(0, 1 - capacity/working_set)`` plus a compulsory-miss floor.  SGX
  adds misses on top because the Memory Encryption Engine defeats line
  reuse across enclave boundaries — the caller passes that as
  ``extra_miss_ratio`` (the framework models do).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry

CACHE_LINE_SIZE = 64


@dataclass
class LlcStats:
    """Cumulative LLC counters."""

    references: int = 0
    misses: int = 0

    def miss_ratio(self) -> float:
        """Misses per reference."""
        return self.misses / self.references if self.references else 0.0


class LlcModel:
    """Last-level cache of a simulated socket."""

    #: Compulsory + conflict miss floor even when the working set fits.
    BASE_MISS_RATIO = 0.002

    def __init__(
        self,
        clock: VirtualClock,
        hooks: HookRegistry,
        capacity_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        if capacity_bytes <= 0:
            raise SimulationError(f"LLC needs capacity, got {capacity_bytes}")
        self._clock = clock
        self._hooks = hooks
        self._capacity_bytes = capacity_bytes
        self._capacity_lines = capacity_bytes // CACHE_LINE_SIZE
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        self.stats = LlcStats()

    @property
    def capacity_bytes(self) -> int:
        """Cache capacity in bytes."""
        return self._capacity_bytes

    # ------------------------------------------------------------------
    # Exact mode
    # ------------------------------------------------------------------
    def access_line(self, address: int, pid: int = 0) -> bool:
        """Access one cache line by byte address; returns True on hit."""
        line = address // CACHE_LINE_SIZE
        hit = line in self._lines
        if hit:
            self._lines.move_to_end(line)
        else:
            while len(self._lines) >= self._capacity_lines:
                self._lines.popitem(last=False)
            self._lines[line] = None
        self._record(references=1, misses=0 if hit else 1, pid=pid)
        return hit

    # ------------------------------------------------------------------
    # Analytic batch mode
    # ------------------------------------------------------------------
    def expected_miss_ratio(self, working_set_bytes: int) -> float:
        """Analytic steady-state miss ratio for a uniform working set."""
        if working_set_bytes <= 0:
            return self.BASE_MISS_RATIO
        if working_set_bytes <= self._capacity_bytes:
            return self.BASE_MISS_RATIO
        capacity_fraction = self._capacity_bytes / working_set_bytes
        return min(1.0, self.BASE_MISS_RATIO + (1.0 - capacity_fraction))

    def access_working_set(
        self,
        working_set_bytes: int,
        accesses: int,
        pid: int = 0,
        extra_miss_ratio: float = 0.0,
    ) -> int:
        """Record a batch of accesses against a working set; returns misses."""
        if accesses <= 0:
            return 0
        if not 0.0 <= extra_miss_ratio <= 1.0:
            raise SimulationError(f"extra miss ratio out of range: {extra_miss_ratio}")
        ratio = min(1.0, self.expected_miss_ratio(working_set_bytes) + extra_miss_ratio)
        misses = int(round(accesses * ratio))
        self._record(references=accesses, misses=misses, pid=pid)
        return misses

    def account(self, references: int, misses: int, pid: int = 0) -> None:
        """Record exact reference/miss counts (aggregate driving).

        Used by workload models whose miss counts are determined upstream
        (calibrated per-request rates); both perf-event hooks fire with the
        given multiplicities.
        """
        if references < 0 or misses < 0 or misses > references:
            raise SimulationError(
                f"bad LLC accounting: references={references} misses={misses}"
            )
        self._record(references=references, misses=misses, pid=pid)

    # ------------------------------------------------------------------
    def _record(self, references: int, misses: int, pid: int) -> None:
        now = self._clock.now_ns
        self.stats.references += references
        self.stats.misses += misses
        if references:
            self._hooks.fire(
                "PERF_COUNT_HW_CACHE_REFERENCES", now, count=references, pid=pid
            )
        if misses:
            self._hooks.fire(
                "PERF_COUNT_HW_CACHE_MISSES", now, count=misses, pid=pid
            )
