"""An sgx-perf model: two-phase record/report of transitions and paging.

sgx-perf (Weichbrodt et al., Middleware '18) records enclave entries/exits
by interposing on the Intel SDK's ECALL/OCALL bridges and EPC paging via
kprobes, then produces an offline report.  Two properties matter for the
paper's comparison and are reproduced here:

* **SDK-only**: it sees transitions through the SDK bridge symbols.  The
  model checks how the monitored runtime issues syscalls — Graphene's
  per-syscall OCALLs are visible, SCONE's shared-memory queue is not —
  and reports accordingly (zero events for SCONE, as in reality);
* **no runtime reporting**: data is only available after
  :meth:`SgxPerf.stop` produces the report; querying mid-run raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ReproError
from repro.frameworks.base import SgxFramework
from repro.frameworks.graphene import GrapheneRuntime
from repro.frameworks.sgxlkl import SgxLklRuntime
from repro.simkernel.kernel import Kernel

#: Recording overhead per observed transition (shim + buffer write), ns.
RECORD_COST_NS = 350


class ProfilerStateError(ReproError):
    """Operation not valid in the profiler's current phase."""


@dataclass
class SgxPerfReport:
    """The offline report produced after the run."""

    duration_ns: int
    ecalls: int
    ocalls: int
    aexs: int
    pages_evicted: int
    pages_reclaimed: int
    sdk_compatible: bool


class SgxPerf:
    """Two-phase profiler: record() ... stop() -> report."""

    def __init__(self, kernel: Kernel, runtime: SgxFramework) -> None:
        self._kernel = kernel
        self._runtime = runtime
        self._recording = False
        self._start_ns = 0
        self._baseline: Dict[str, int] = {}
        self._report: Optional[SgxPerfReport] = None
        #: Recording overhead accumulated (charged to the app's runtime).
        self.overhead_ns = 0
        self._handles = []

    @property
    def sdk_compatible(self) -> bool:
        """Whether the runtime's transitions go through SDK-style bridges."""
        return isinstance(self._runtime, (GrapheneRuntime, SgxLklRuntime))

    def record(self) -> None:
        """Phase 1: start recording."""
        if self._recording:
            raise ProfilerStateError("sgx-perf is already recording")
        enclave = self._runtime.enclave
        if enclave is None:
            raise ProfilerStateError(
                "sgx-perf profiles enclave applications; none is set up"
            )
        self._recording = True
        self._report = None
        self._start_ns = self._kernel.clock.now_ns
        epc = self._kernel.module("isgx").epc
        self._baseline = {
            "ecalls": enclave.stats.ecalls,
            "ocalls": enclave.stats.ocalls,
            "aexs": enclave.stats.aexs,
            "evicted": epc.counters.pages_evicted,
            "reclaimed": epc.counters.pages_reclaimed,
        }
        # Paging kprobes: charge the recording shim per event.
        for hook in ("isgx:sgx_ewb", "isgx:sgx_eldu"):
            self._handles.append(
                self._kernel.hooks.attach(
                    hook, lambda ctx: self._charge(ctx.count)
                )
            )

    def _charge(self, count: int) -> None:
        self.overhead_ns += RECORD_COST_NS * count

    def stop(self) -> SgxPerfReport:
        """Phase 2: stop recording and produce the report."""
        if not self._recording:
            raise ProfilerStateError("sgx-perf is not recording")
        self._recording = False
        for handle in self._handles:
            handle.detach()
        self._handles.clear()
        enclave = self._runtime.enclave
        epc = self._kernel.module("isgx").epc
        compatible = self.sdk_compatible
        report = SgxPerfReport(
            duration_ns=self._kernel.clock.now_ns - self._start_ns,
            ecalls=(enclave.stats.ecalls - self._baseline["ecalls"]) if compatible else 0,
            ocalls=(enclave.stats.ocalls - self._baseline["ocalls"]) if compatible else 0,
            aexs=(enclave.stats.aexs - self._baseline["aexs"]) if compatible else 0,
            pages_evicted=epc.counters.pages_evicted - self._baseline["evicted"],
            pages_reclaimed=epc.counters.pages_reclaimed - self._baseline["reclaimed"],
            sdk_compatible=compatible,
        )
        self._report = report
        return report

    def report(self) -> SgxPerfReport:
        """The offline report; unavailable while recording (by design)."""
        if self._recording:
            raise ProfilerStateError(
                "sgx-perf cannot report during the run: it is a two-phased "
                "record-and-report tool (the limitation TEEMon removes)"
            )
        if self._report is None:
            raise ProfilerStateError("no recording has completed yet")
        return self._report
