"""The SEV TEE Metrics Exporter.

The SGX TME's reader over driver module parameters
(:class:`~repro.exporters.base.ModuleParamsExporter`), plus the
hypervisor's per-VM view — which is exactly the paper's generality
argument: a new TEE needs a new exporter, not a new monitoring stack.
The PMAG scrapes it unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.exporters.base import ExporterFootprint, MIB, ModuleParamsExporter
from repro.sev import driver as sev_driver
from repro.sev.hypervisor import QemuSevExtension
from repro.simkernel.kernel import Kernel


class SevMetricsExporter(ModuleParamsExporter):
    """Per-host SEV metrics exporter."""

    FOOTPRINT = ExporterFootprint(cpu_fraction=0.002, memory_bytes=20 * MIB)
    PORT = 9103
    PROCESS_NAME = "sev-exporter"
    JOB = "sev"
    MODULE = sev_driver.MODULE_NAME
    PARAMS_DIR = sev_driver.PARAMS_DIR
    PARAMS = (
        ("sev_asids_total", "sev_nr_asids_total", "SEV ASIDs supported", False),
        ("sev_asids_free", "sev_nr_asids_free", "SEV ASIDs unbound", False),
        ("sev_guests_active", "sev_nr_guests_active", "Protected guests active", False),
        ("sev_launches_total", "sev_launches_total", "LAUNCH_START commands", True),
        ("sev_measures_total", "sev_measures_total", "LAUNCH_MEASURE commands", True),
        ("sev_activations_total", "sev_activations_total", "ACTIVATE commands", True),
        ("sev_decommissions_total", "sev_decommissions_total", "DECOMMISSION commands", True),
    )

    def __init__(
        self,
        kernel: Kernel,
        hypervisor: Optional[QemuSevExtension] = None,
        container_id: Optional[str] = None,
    ) -> None:
        super().__init__(kernel, container_id=container_id)
        self.hypervisor = hypervisor
        # Per-VM metrics need the hypervisor's view (paper §4: "the amount
        # of protective memory requested by each virtual machine").
        self._vm_memory = self.registry.gauge(
            "sev_guest_memory_bytes", "Encrypted memory per protected VM", ["vm"]
        )
        self._vm_vcpus = self.registry.gauge(
            "sev_guest_vcpus", "vCPUs per protected VM", ["vm"]
        )
        self._vm_cpu = self.registry.counter(
            "sev_guest_cpu_seconds_total", "Host CPU time per guest", ["vm"]
        )

    def _refresh(self) -> None:
        super()._refresh()
        if self.hypervisor is None:
            return
        for vm in self.hypervisor.vms():
            self._vm_memory.labels(vm.name).set_to(vm.memory_bytes)
            self._vm_vcpus.labels(vm.name).set_to(vm.vcpus)
            self._vm_cpu.labels(vm.name).set_to(vm.process.cpu_time_ns / 1e9)
