"""Simulated Linux-like kernel substrate.

This package is the bottom layer of the reproduction: a deterministic,
discrete-event model of the pieces of a Linux host that TEEMon observes.
It provides

* a virtual nanosecond clock with an event queue (:mod:`repro.simkernel.clock`),
* deterministic, forkable randomness (:mod:`repro.simkernel.rng`),
* a registry of instrumentation hooks — tracepoints, kprobes and perf
  events — matching the names in Table 2 of the paper
  (:mod:`repro.simkernel.hooks`),
* processes, threads and a scheduler that accounts context switches
  (:mod:`repro.simkernel.process`, :mod:`repro.simkernel.scheduler`),
* a virtual-memory and page-cache model that produces page faults and the
  page-cache kprobe sites (:mod:`repro.simkernel.memory`,
  :mod:`repro.simkernel.pagecache`),
* a CPU / last-level-cache model producing cache references and misses
  (:mod:`repro.simkernel.cpu`),
* a syscall table and dispatcher firing the ``raw_syscalls`` tracepoints
  (:mod:`repro.simkernel.syscalls`),
* a tiny ``/proc`` + ``/sys`` virtual filesystem
  (:mod:`repro.simkernel.procfs`),
* a durable storage medium with sync/crash semantics
  (:mod:`repro.simkernel.disk`), and
* the :class:`~repro.simkernel.kernel.Kernel` facade that wires it all
  together.

The scheduler, memory, page-cache and LLC models are driven per
simulation slice: workloads record batches through their ``account_*``
methods, and each batch fires its hooks once with the batch size as the
firing's ``count``.
"""

from repro.simkernel.clock import VirtualClock
from repro.simkernel.disk import DiskCrashReport, LostTail, SimDisk
from repro.simkernel.hooks import HookKind, HookRegistry, HookContext
from repro.simkernel.kernel import Kernel
from repro.simkernel.process import Process, Thread
from repro.simkernel.rng import DeterministicRng

__all__ = [
    "VirtualClock",
    "DeterministicRng",
    "DiskCrashReport",
    "LostTail",
    "SimDisk",
    "HookKind",
    "HookRegistry",
    "HookContext",
    "Process",
    "Thread",
    "Kernel",
]
