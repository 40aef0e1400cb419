"""CPU last-level-cache model.

TEEMon reads two hardware perf events: ``PERF_COUNT_HW_CACHE_REFERENCES``
and ``PERF_COUNT_HW_CACHE_MISSES``.  The model here produces both.  It is
driven per simulation slice: the framework models determine reference and
miss counts upstream (calibrated per-request miss rates and miss ratios,
one set per runtime) and :meth:`LlcModel.account` records them.  No cache
lines are simulated: TEEMon only reads the counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry


@dataclass
class LlcStats:
    """Cumulative LLC counters."""

    references: int = 0
    misses: int = 0

    def miss_ratio(self) -> float:
        """Misses per reference."""
        return self.misses / self.references if self.references else 0.0


class LlcModel:
    """Last-level cache counters of a simulated socket."""

    def __init__(self, clock: VirtualClock, hooks: HookRegistry) -> None:
        self._clock = clock
        self._hooks = hooks
        self.stats = LlcStats()

    def account(self, references: int, misses: int, pid: int = 0) -> None:
        """Record exact reference/miss counts; both perf-event hooks fire
        with the given multiplicities."""
        if references < 0 or misses < 0 or misses > references:
            raise SimulationError(
                f"bad LLC accounting: references={references} misses={misses}"
            )
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
