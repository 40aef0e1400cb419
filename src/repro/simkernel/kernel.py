"""The :class:`Kernel` facade: one simulated host.

A ``Kernel`` wires the clock, RNG, hook registry, scheduler, virtual
memory, page cache, LLC model, syscall table and the ``/proc``/``/sys``
filesystem into a single host.  It also manages process lifecycle and
publishes the ``/proc/stat`` and ``/proc/meminfo`` pseudo-files the
node-exporter reads.

Loadable modules (the simulated SGX driver is one) register themselves via
:meth:`Kernel.load_module`, which is how the TEE Metrics Exporter finds the
driver's ``/sys/module/<name>/parameters`` files.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.cpu import LlcModel
from repro.simkernel.hooks import HookRegistry
from repro.simkernel.memory import VirtualMemory
from repro.simkernel.pagecache import PageCache
from repro.simkernel.process import Process, Thread, ThreadState
from repro.simkernel.procfs import VirtualFs
from repro.simkernel.rng import DeterministicRng
from repro.simkernel.scheduler import Scheduler
from repro.simkernel.syscalls import SyscallTable

GIB = 1024 * 1024 * 1024


class KernelModule:
    """Base class for loadable kernel modules (e.g. the SGX driver)."""

    #: Module name, as it appears under ``/sys/module/<name>``.
    name: str = "module"

    def on_load(self, kernel: "Kernel") -> None:
        """Called when the module is inserted into the kernel."""

    def on_unload(self, kernel: "Kernel") -> None:
        """Called when the module is removed."""


class Kernel:
    """One simulated host: hardware model + OS services."""

    def __init__(
        self,
        seed: int = 0,
        hostname: str = "node-0",
        num_cpus: int = 8,
        memory_bytes: int = 32 * GIB,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.hostname = hostname
        # Multi-host simulations (Kubernetes clusters) share one clock so
        # all nodes live on the same timeline.
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = DeterministicRng(seed, path=f"kernel/{hostname}")
        self.hooks = HookRegistry()
        self.scheduler = Scheduler(self.clock, self.hooks, num_cpus=num_cpus)
        self.memory = VirtualMemory(self.clock, self.hooks, total_bytes=memory_bytes)
        self.page_cache = PageCache(self.clock, self.hooks)
        self.llc = LlcModel(self.clock, self.hooks)
        self.syscalls = SyscallTable(self.clock, self.hooks)
        self.vfs = VirtualFs()
        self.memory_bytes = memory_bytes
        self._pid_counter = itertools.count(start=100)
        self._tid_counter = itertools.count(start=100)
        self._processes: Dict[int, Process] = {}
        self._modules: Dict[str, KernelModule] = {}
        self._publish_procfs()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def spawn_process(
        self,
        name: str,
        container_id: Optional[str] = None,
        threads: int = 1,
    ) -> Process:
        """Create a process with ``threads`` initial threads."""
        if threads < 1:
            raise SimulationError(f"process needs at least one thread, got {threads}")
        pid = next(self._pid_counter)
        process = Process(
            pid=pid,
            name=name,
            container_id=container_id,
            started_at_ns=self.clock.now_ns,
        )
        self.memory.create_space(pid)
        for _ in range(threads):
            self.spawn_thread(process)
        self._processes[pid] = process
        return process

    def spawn_thread(self, process: Process, name: str = "") -> Thread:
        """Add a thread to an existing process."""
        if process.exited:
            raise SimulationError(f"process {process.pid} has exited")
        tid = next(self._tid_counter)
        thread = Thread(tid=tid, process=process, name=name or f"{process.name}/{tid}")
        process.threads[tid] = thread
        return thread

    def exit_process(self, process: Process, code: int = 0) -> None:
        """Terminate a process, tearing down its address space."""
        if process.exited:
            raise SimulationError(f"process {process.pid} already exited")
        for thread in process.threads.values():
            thread.state = ThreadState.EXITED
        self.memory.destroy_space(process.pid)
        process.exited = True
        process.exit_code = code
        del self._processes[process.pid]

    def process(self, pid: int) -> Process:
        """Look up a live process by pid."""
        try:
            return self._processes[pid]
        except KeyError:
            raise SimulationError(f"no such process: {pid}") from None

    def processes(self) -> List[Process]:
        """All live processes."""
        return list(self._processes.values())

    def find_processes(self, name: str) -> List[Process]:
        """Live processes whose command name matches exactly."""
        return [p for p in self._processes.values() if p.name == name]

    # ------------------------------------------------------------------
    # Modules
    # ------------------------------------------------------------------
    def load_module(self, module: KernelModule) -> None:
        """Insert a loadable module (e.g. the SGX driver)."""
        if module.name in self._modules:
            raise SimulationError(f"module already loaded: {module.name}")
        self._modules[module.name] = module
        module.on_load(self)

    def unload_module(self, name: str) -> None:
        """Remove a loadable module."""
        try:
            module = self._modules.pop(name)
        except KeyError:
            raise SimulationError(f"module not loaded: {name}") from None
        module.on_unload(self)

    def module(self, name: str) -> KernelModule:
        """Look up a loaded module."""
        try:
            return self._modules[name]
        except KeyError:
            raise SimulationError(f"module not loaded: {name}") from None

    def has_module(self, name: str) -> bool:
        """Whether a module is loaded."""
        return name in self._modules

    # ------------------------------------------------------------------
    # procfs content
    # ------------------------------------------------------------------
    def _publish_procfs(self) -> None:
        self.vfs.publish("/proc/stat", self._render_proc_stat)
        self.vfs.publish("/proc/meminfo", self._render_meminfo)
        self.vfs.publish("/proc/uptime", lambda: f"{self.clock.now_seconds:.2f}")

    def _render_proc_stat(self) -> str:
        # /proc/stat counts in USER_HZ (100 Hz) ticks.  Only busy time is
        # accounted, so the idle column reads 0.
        cpus = [self.scheduler.cpu(i) for i in range(self.scheduler.num_cpus)]
        total_busy = sum(cpu.busy_ns for cpu in cpus)
        lines = [f"cpu {total_busy // 10_000_000} 0 0 0"]
        for cpu in cpus:
            lines.append(f"cpu{cpu.cpu_id} {cpu.busy_ns // 10_000_000} 0 0 0")
        lines.append(f"ctxt {self.scheduler.total_switches}")
        return "\n".join(lines) + "\n"

    def _render_meminfo(self) -> str:
        total_kb = self.memory_bytes // 1024
        used_kb = self.memory.physical.allocated * 4
        free_kb = total_kb - used_kb
        # The page cache counts activity and keeps no residency.
        return (
            f"MemTotal: {total_kb} kB\n"
            f"MemFree: {free_kb} kB\n"
            f"Cached: 0 kB\n"
        )
