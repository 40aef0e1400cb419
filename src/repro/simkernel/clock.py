"""Virtual time for the simulated host.

Every component in the reproduction shares one :class:`VirtualClock`.  The
clock counts integer nanoseconds and owns a priority queue of scheduled
callbacks, which makes the whole system a deterministic discrete-event
simulation: time only moves when :meth:`VirtualClock.advance` or
:meth:`VirtualClock.run_until` is called, and callbacks scheduled for the
same instant run in the order they were scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError

NANOS_PER_USEC = 1_000
NANOS_PER_MILLI = 1_000_000
NANOS_PER_SEC = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(value * NANOS_PER_SEC)


def millis(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(value * NANOS_PER_MILLI)


def micros(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(value * NANOS_PER_USEC)


@dataclass(frozen=True)
class TimerHandle:
    """Handle returned by :meth:`VirtualClock.call_at` for cancellation."""

    deadline_ns: int
    sequence: int
    _clock: "VirtualClock" = field(repr=False, compare=False)

    def cancel(self) -> None:
        """Cancel the timer; a cancelled timer never fires."""
        self._clock._cancel(self)


class PeriodicHandle:
    """Handle returned by :meth:`VirtualClock.call_every`.

    Each firing runs the callback *then* schedules the next one, so at a
    shared instant a periodic timer keeps its place among the timers the
    callback itself scheduled.
    """

    def __init__(self, clock: "VirtualClock", interval_ns: int,
                 callback: Callable[[], None], first_delay_ns: int) -> None:
        self._clock = clock
        self._interval_ns = interval_ns
        self._callback = callback
        self._cancelled = False
        self._timer = clock.call_later(first_delay_ns, self._fire)

    def _fire(self) -> None:
        self._callback()
        if not self._cancelled:
            self._timer = self._clock.call_later(self._interval_ns, self._fire)

    def cancel(self) -> None:
        """Stop firing; safe from inside the callback (never re-arms)."""
        self._cancelled = True
        self._timer.cancel()


class VirtualClock:
    """A deterministic nanosecond clock with an event queue.

    The clock never reads wall time.  Two simulations constructed with the
    same seed and driven by the same calls produce identical timelines.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = start_ns
        self._sequence = itertools.count()
        # Heap entries: [deadline, sequence, callback-or-None], the same
        # lists ``_entries`` holds by (deadline, sequence).  A cancelled
        # timer has its callback replaced with None, so nothing it closes
        # over stays reachable, and is skipped on pop.
        self._queue: List[list] = []
        self._entries: dict = {}

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_seconds(self) -> float:
        """Current virtual time in (float) seconds."""
        return self._now_ns / NANOS_PER_SEC

    def call_at(self, deadline_ns: int, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run when time reaches ``deadline_ns``."""
        if deadline_ns < self._now_ns:
            raise SimulationError(
                f"cannot schedule in the past: {deadline_ns} < {self._now_ns}"
            )
        seq = next(self._sequence)
        handle = TimerHandle(deadline_ns, seq, self)
        entry = [deadline_ns, seq, callback]
        self._entries[(deadline_ns, seq)] = entry
        heapq.heappush(self._queue, entry)
        return handle

    def call_later(self, delay_ns: int, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay_ns`` nanoseconds from now."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        return self.call_at(self._now_ns + delay_ns, callback)

    def call_every(
        self, interval_ns: int, callback: Callable[[], None],
        first_delay_ns: Optional[int] = None,
    ) -> PeriodicHandle:
        """Run ``callback`` every ``interval_ns`` until the handle is
        cancelled; the first firing is ``first_delay_ns`` from now
        (default: one interval)."""
        if interval_ns <= 0:
            raise SimulationError(f"interval must be positive: {interval_ns}")
        return PeriodicHandle(
            self, interval_ns, callback,
            interval_ns if first_delay_ns is None else first_delay_ns,
        )

    def _cancel(self, handle: TimerHandle) -> None:
        entry = self._entries.pop((handle.deadline_ns, handle.sequence), None)
        if entry is not None:
            entry[2] = None

    def advance(self, delta_ns: int) -> None:
        """Move time forward by ``delta_ns``, firing due callbacks in order."""
        if delta_ns < 0:
            raise SimulationError(f"cannot move time backwards: {delta_ns}")
        self.run_until(self._now_ns + delta_ns)

    def run_until(self, deadline_ns: int) -> None:
        """Move time forward to ``deadline_ns``, firing due callbacks in order.

        Callbacks may schedule further callbacks; any that land at or before
        the deadline fire within this call.
        """
        if deadline_ns < self._now_ns:
            raise SimulationError(
                f"cannot move time backwards: {deadline_ns} < {self._now_ns}"
            )
        while self._queue and self._queue[0][0] <= deadline_ns:
            when, seq, callback = heapq.heappop(self._queue)
            if callback is None:
                continue  # cancelled
            del self._entries[(when, seq)]
            self._now_ns = when
            callback()
        self._now_ns = deadline_ns

    def pending_count(self) -> int:
        """Number of timers that are scheduled and not cancelled."""
        return len(self._entries)
