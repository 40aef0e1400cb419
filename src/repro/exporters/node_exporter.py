"""The node exporter: machine metrics from ``/proc`` and ``/sys``.

The paper integrates the Prometheus node_exporter, reduced to *CPU,
memory, filesystem and network statistics* (§5.1).  This model reads the
simulated kernel's ``/proc/stat`` and ``/proc/meminfo`` pseudo-files —
parsing text, as the real exporter does — plus kernel state for
filesystem/network counters.
"""

from __future__ import annotations

from typing import Optional

from repro.exporters.base import Exporter, ExporterFootprint, MIB
from repro.simkernel.kernel import Kernel

USER_HZ = 100


class NodeExporter(Exporter):
    """Per-host machine metrics."""

    FOOTPRINT = ExporterFootprint(cpu_fraction=0.003, memory_bytes=25 * MIB)
    PORT = 9100
    PROCESS_NAME = "node-exporter"
    JOB = "node"

    def __init__(self, kernel: Kernel, container_id: Optional[str] = None) -> None:
        super().__init__(kernel, container_id=container_id)
        reg = self.registry
        self._cpu_seconds = reg.counter(
            "node_cpu_seconds_total", "CPU time by mode", ["cpu", "mode"]
        )
        self._ctx = reg.counter(
            "node_context_switches_total", "Context switches (/proc/stat ctxt)"
        )
        self._mem_total = reg.gauge("node_memory_MemTotal_bytes", "Total memory")
        self._mem_free = reg.gauge("node_memory_MemFree_bytes", "Free memory")
        self._mem_cached = reg.gauge("node_memory_Cached_bytes", "Page-cache memory")
        self._fs_reads = reg.counter(
            "node_filesystem_page_cache_hits_total", "Page-cache hits"
        )
        self._fs_misses = reg.counter(
            "node_filesystem_page_cache_misses_total", "Page-cache misses"
        )
        self._net_served = reg.counter(
            "node_network_http_requests_total", "HTTP requests served on this host"
        )
        self._uptime = reg.gauge("node_uptime_seconds", "Host uptime")
        reg.on_collect(self._refresh)

    def _refresh(self) -> None:
        kernel = self.kernel
        for line in kernel.vfs.read("/proc/stat").splitlines():
            fields = line.split()
            if not fields:
                continue
            if fields[0].startswith("cpu") and fields[0] != "cpu":
                cpu_id = fields[0][3:]
                busy_ticks = int(fields[1])
                idle_ticks = int(fields[4])
                self._cpu_seconds.labels(cpu_id, "busy").set_to(busy_ticks / USER_HZ)
                self._cpu_seconds.labels(cpu_id, "idle").set_to(idle_ticks / USER_HZ)
            elif fields[0] == "ctxt":
                self._ctx.labels().set_to(int(fields[1]))
        for line in kernel.vfs.read("/proc/meminfo").splitlines():
            name, _, rest = line.partition(":")
            value_kb = int(rest.split()[0])
            if name == "MemTotal":
                self._mem_total.set_to(value_kb * 1024)
            elif name == "MemFree":
                self._mem_free.set_to(value_kb * 1024)
            elif name == "Cached":
                self._mem_cached.set_to(value_kb * 1024)
        self._fs_reads.labels().set_to(kernel.page_cache.stats.hits)
        self._fs_misses.labels().set_to(kernel.page_cache.stats.misses)
        self._uptime.set_to(kernel.clock.now_seconds)
