"""cAdvisor: per-container utilisation metrics.

The paper integrates Google's cAdvisor to provide Docker-container
metrics (§5.1) and notes in §6.2 that it is the most CPU-hungry TEEMon
component (~3% of a CPU on average) — which the footprint below encodes,
and which the Figure-4 experiment then measures.

The exporter walks the host's containers (any process carrying a
``container_id``) and exports CPU time, memory and thread counts per
container.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exporters.base import Exporter, ExporterFootprint, MIB
from repro.simkernel.kernel import Kernel

NANOS_PER_SEC = 1_000_000_000


class CadvisorExporter(Exporter):
    """Per-container metrics from host process state."""

    FOOTPRINT = ExporterFootprint(cpu_fraction=0.03, memory_bytes=95 * MIB)
    PORT = 8080
    PATH = "/metrics"
    PROCESS_NAME = "cadvisor"
    JOB = "cadvisor"

    def __init__(self, kernel: Kernel, container_id: Optional[str] = None) -> None:
        super().__init__(kernel, container_id=container_id)
        reg = self.registry
        self._cpu = reg.counter(
            "container_cpu_usage_seconds_total", "Container CPU time", ["container"]
        )
        self._memory = reg.gauge(
            "container_memory_usage_bytes", "Container resident memory", ["container"]
        )
        self._threads = reg.gauge(
            "container_threads", "Container live threads", ["container"]
        )
        self._count = reg.gauge("container_count", "Containers on this host")
        reg.on_collect(self._refresh)

    def _refresh(self) -> None:
        per_container: Dict[str, Dict[str, float]] = {}
        for process in self.kernel.processes():
            if process.container_id is None:
                continue
            entry = per_container.setdefault(
                process.container_id,
                {"cpu_ns": 0.0, "rss": 0.0, "threads": 0.0},
            )
            entry["cpu_ns"] += process.cpu_time_ns
            entry["rss"] += process.rss_bytes
            entry["threads"] += len(process.live_threads())
        for container, entry in per_container.items():
            self._cpu.labels(container).set_to(entry["cpu_ns"] / NANOS_PER_SEC)
            self._memory.labels(container).set_to(entry["rss"])
            self._threads.labels(container).set_to(entry["threads"])
        self._count.set_to(len(per_container))
