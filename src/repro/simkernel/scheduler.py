"""CPU scheduler model with context-switch accounting.

TEEMon observes the scheduler through two instruments (Table 2): the
``sched:sched_switches`` tracepoint and the
``PERF_COUNT_SW_CONTEXT_SWITCHES`` software perf event.  This module fires
both.  The model is driven per simulation slice:
:meth:`Scheduler.account_switches` records that a batch of N switches
happened to a process, and :meth:`Scheduler.account_cpu_time` charges a
thread's CPU time.  Simulating millions of individual switches would not
change anything the monitoring pipeline can see: TEEMon only reads the
counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry
from repro.simkernel.process import Thread


@dataclass
class CpuState:
    """Per-CPU bookkeeping."""

    cpu_id: int
    busy_ns: int = 0


class Scheduler:
    """Context-switch and CPU-time accounting over a fixed set of CPUs."""

    def __init__(
        self,
        clock: VirtualClock,
        hooks: HookRegistry,
        num_cpus: int = 4,
    ) -> None:
        if num_cpus <= 0:
            raise SchedulerError(f"need at least one CPU, got {num_cpus}")
        self._clock = clock
        self._hooks = hooks
        self._cpus = [CpuState(cpu_id=i) for i in range(num_cpus)]
        self._total_switches = 0

    @property
    def num_cpus(self) -> int:
        """Number of CPUs on this host."""
        return len(self._cpus)

    @property
    def total_switches(self) -> int:
        """Host-wide context switches since boot."""
        return self._total_switches

    def cpu(self, cpu_id: int) -> CpuState:
        """Access a CPU's bookkeeping."""
        try:
            return self._cpus[cpu_id]
        except IndexError:
            raise SchedulerError(f"no such CPU: {cpu_id}") from None

    def account_switches(self, pid: int, count: int) -> None:
        """Record a batch of context switches attributed to ``pid``."""
        if count <= 0:
            return
        self._total_switches += count
        now = self._clock.now_ns
        self._hooks.fire(
            "sched:sched_switches", now, count=count, pid=pid, prev_pid=0
        )
        self._hooks.fire(
            "PERF_COUNT_SW_CONTEXT_SWITCHES", now, count=count, pid=pid
        )

    def account_cpu_time(self, thread: Thread, duration_ns: int) -> None:
        """Charge a batch of CPU time to a thread (on CPU 0)."""
        if duration_ns < 0:
            raise SchedulerError(f"negative duration: {duration_ns}")
        self._cpus[0].busy_ns += duration_ns
        thread.cpu_time_ns += duration_ns
        thread.process.cpu_time_ns += duration_ns
