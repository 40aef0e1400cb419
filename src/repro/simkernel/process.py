"""Processes and threads of the simulated host.

A :class:`Process` owns an address space (managed by
:class:`~repro.simkernel.memory.VirtualMemory`) and one or more
:class:`Thread` objects whose CPU time
:class:`~repro.simkernel.scheduler.Scheduler` accounts.  Processes carry the
metadata TEEMon's exporters care about: a command name (for process
filtering in the dashboard, e.g. ``redis-server``), an optional container
id (for the cAdvisor exporter), and accumulated CPU time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class ThreadState(enum.Enum):
    """Lifecycle states of a simulated thread."""

    RUNNABLE = "runnable"
    EXITED = "exited"


@dataclass
class Thread:
    """A schedulable entity belonging to a process."""

    tid: int
    process: "Process"
    name: str = ""
    state: ThreadState = ThreadState.RUNNABLE
    cpu_time_ns: int = 0


@dataclass
class Process:
    """A simulated OS process."""

    pid: int
    name: str
    container_id: Optional[str] = None
    threads: Dict[int, Thread] = field(default_factory=dict)
    cpu_time_ns: int = 0
    rss_bytes: int = 0
    started_at_ns: int = 0
    exited: bool = False
    exit_code: Optional[int] = None

    def live_threads(self) -> List[Thread]:
        """Threads that have not exited."""
        return [t for t in self.threads.values() if t.state is not ThreadState.EXITED]
