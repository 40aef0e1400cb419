"""Shared runtime machinery: lifecycle, throughput model, event emission.

The division of labour:

* the **throughput model** (:meth:`SgxFramework.achievable_rate`) turns a
  workload configuration into a request rate, combining the runtime's
  calibrated request cost, its concurrency response, the DB-size penalty,
  and the monitoring-overhead surcharge;
* **event emission** (:meth:`SgxFramework.emit_slice`) replays a slice of
  that workload against the simulated kernel — syscalls through the
  runtime's own syscall mechanism, context switches, page faults, LLC
  traffic and EPC churn at the calibrated per-request rates — so the
  TEEMon pipeline measures the same phenomena the paper's Figure 11 plots.

Subclasses implement :meth:`_dispatch_syscalls` (how syscalls reach the
kernel: directly, via an async queue, or via OCALLs) and may extend
:meth:`setup`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.calibration.profiles import FrameworkCalibration
from repro.errors import FrameworkError
from repro.sgx.driver import SgxDriver
from repro.sgx.enclave import Enclave
from repro.simkernel.kernel import Kernel
from repro.simkernel.memory import FaultKind
from repro.simkernel.process import Process

#: eBPF per-event instrumentation cost (matches repro.ebpf.attach).
EBPF_EVENT_COST_NS = 120.0


def monitoring_factor(
    events: float, cost_ns: float, ebpf_active: bool, full_monitoring: bool
) -> float:
    """Multiplicative slowdown from active monitoring.

    The eBPF share is mechanism-derived: instrumented ``events`` per
    request times the per-event program cost, relative to the request
    cost ``cost_ns``.  Full TEEMon doubles it (aggregation, cAdvisor and
    exporter interference contribute "the other half", §6.3).
    """
    if not ebpf_active and not full_monitoring:
        return 1.0
    share = events * EBPF_EVENT_COST_NS / cost_ns
    overhead = share * (2.0 if full_monitoring else 1.0)
    return 1.0 / (1.0 + overhead)


@dataclass
class WorkloadSlice:
    """Outcome of one emitted workload slice."""

    requests: int
    duration_ns: int
    syscalls: Dict[str, int] = field(default_factory=dict)
    user_faults: int = 0
    host_faults: int = 0
    llc_misses: int = 0
    epc_churn_pages: int = 0
    ctx_process: int = 0
    ctx_host_extra: int = 0


class SgxFramework:
    """Base runtime: owns the app process and (optionally) its enclave."""

    def __init__(self, calibration: FrameworkCalibration) -> None:
        self.calibration = calibration
        self.kernel: Optional[Kernel] = None
        self.driver: Optional[SgxDriver] = None
        self.process: Optional[Process] = None
        self.enclave: Optional[Enclave] = None
        self._main_thread = None

    @property
    def name(self) -> str:
        """Calibration/framework name."""
        return self.calibration.name

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(
        self,
        kernel: Kernel,
        app_name: str = "redis-server",
        container_id: Optional[str] = None,
    ) -> Process:
        """Start the application under this runtime on ``kernel``."""
        if self.process is not None:
            raise FrameworkError(f"{self.name}: already set up")
        self.kernel = kernel
        self.process = kernel.spawn_process(app_name, container_id=container_id)
        self._main_thread = next(iter(self.process.threads.values()))
        if self.calibration.uses_enclave:
            if not kernel.has_module("isgx"):
                raise FrameworkError(
                    f"{self.name}: requires the isgx driver (SGX hardware)"
                )
            self.driver = kernel.module("isgx")  # type: ignore[assignment]
            self.enclave = self.driver.create_enclave(
                self.process, heap_bytes=self.calibration.enclave_heap_bytes
            )
            self.driver.init_enclave(self.enclave)
        return self.process

    def teardown(self) -> None:
        """Stop the application, destroying its enclave."""
        if self.kernel is None or self.process is None:
            raise FrameworkError(f"{self.name}: not set up")
        if self.enclave is not None and self.driver is not None:
            self.driver.remove_enclave(self.enclave)
            self.enclave = None
        if not self.process.exited:
            self.kernel.exit_process(self.process)
        self.process = None

    def _require_setup(self) -> Kernel:
        if self.kernel is None or self.process is None:
            raise FrameworkError(f"{self.name}: not set up")
        return self.kernel

    # ------------------------------------------------------------------
    # Data loading
    # ------------------------------------------------------------------
    def load_working_set(self, db_bytes: int) -> int:
        """Populate the database: commit the working set (EPC-aware).

        Returns the cost in nanoseconds.  For native runtimes this maps
        ordinary anonymous memory; for enclave runtimes it drives EADD and,
        beyond the EPC, the initial eviction churn.
        """
        kernel = self._require_setup()
        if self.enclave is not None and self.driver is not None:
            outcome = self.driver.fault_working_set(
                self.enclave, db_bytes, accesses=0
            )
            self.process.rss_bytes = max(self.process.rss_bytes, db_bytes)
            return outcome.cost_ns
        pages = db_bytes // 4096
        kernel.memory.map_range(self.process.pid, 0x10000, int(pages))
        self.process.rss_bytes = max(self.process.rss_bytes, db_bytes)
        return int(pages) * 250  # page-zeroing cost

    # ------------------------------------------------------------------
    # Throughput model
    # ------------------------------------------------------------------
    def per_request_cost_ns(self, connections: int, db_bytes: int) -> float:
        """Service cost of one request at this configuration."""
        cal = self.calibration
        cost = cal.request_cost_ns + cal.per_connection_cost_ns * connections
        penalty = cal.db_penalty_for(db_bytes)
        if penalty <= 0:
            raise FrameworkError(f"{self.name}: non-positive db penalty")
        return cost / penalty

    def concurrency_factor(self, connections: int, pipeline: int) -> float:
        """Fraction of CPU capacity reached at this concurrency level."""
        inflight = max(1, connections * pipeline)
        factor = inflight / (inflight + self.calibration.half_saturation_inflight)
        dip = self.calibration.dip
        if dip is not None:
            center, width, depth = dip
            factor *= 1.0 - depth * math.exp(
                -((connections - center) ** 2) / (2.0 * width ** 2)
            )
        knee = self.calibration.contention_knee_connections
        if knee > 0 and connections > knee:
            excess = (connections - knee) / knee
            factor *= 1.0 / (1.0 + self.calibration.contention_decay * excess)
        return factor

    def monitoring_overhead_factor(
        self, ebpf_active: bool, full_monitoring: bool
    ) -> float:
        """:func:`monitoring_factor` over this runtime's instrumented
        events per request."""
        events = self.calibration.events_per_request()
        # Context switches and faults are also instrumented events.
        rates = self.calibration.rates(0)
        events += (
            rates.at("ctx_switches_process", 320)
            + rates.at("user_faults", 320)
        ) / 100.0 * 4.0  # both HW and SW counters, enter+exit
        return monitoring_factor(
            events, self.calibration.request_cost_ns, ebpf_active, full_monitoring
        )

    def achievable_rate(
        self,
        connections: int,
        pipeline: int,
        db_bytes: int,
        network_cap_rps: Optional[float] = None,
        ebpf_active: bool = False,
        full_monitoring: bool = False,
    ) -> float:
        """Requests per second at this configuration."""
        if connections <= 0 or pipeline <= 0:
            raise FrameworkError("connections and pipeline must be positive")
        cost_ns = self.per_request_cost_ns(connections, db_bytes)
        capacity = 1e9 / cost_ns
        offered = capacity * self.concurrency_factor(connections, pipeline)
        offered *= self.monitoring_overhead_factor(ebpf_active, full_monitoring)
        if network_cap_rps is None or network_cap_rps <= 0:
            return offered
        if offered <= network_cap_rps:
            return offered
        # Over-subscribed link: losses and retransmits erode goodput.
        excess = offered / network_cap_rps - 1.0
        efficiency = 1.0 / (1.0 + self.calibration.oversubscription_decay * excess)
        return network_cap_rps * efficiency

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _dispatch_syscalls(self, name: str, count: int) -> int:
        """Deliver ``count`` syscalls to the kernel; returns cost in ns."""
        raise NotImplementedError

    def syscall_mix(self, requests: int) -> Dict[str, int]:
        """Expected kernel-visible syscall counts for ``requests``."""
        mix: Dict[str, int] = {}
        for name, per_request in self.calibration.syscalls_per_request:
            count = int(round(per_request * requests))
            if count > 0:
                mix[name] = count
        return mix

    def emit_slice(
        self,
        requests: int,
        connections: int,
        db_bytes: int,
        duration_ns: int,
    ) -> WorkloadSlice:
        """Replay ``requests`` worth of events against the kernel."""
        kernel = self._require_setup()
        result = WorkloadSlice(requests=requests, duration_ns=duration_ns)
        if requests <= 0:
            return result
        pid = self.process.pid
        rates = self.calibration.rates(db_bytes)
        rng = kernel.rng.fork(f"slice/{self.name}")

        # Syscalls through the runtime's own mechanism.
        for name, count in self.syscall_mix(requests).items():
            self._dispatch_syscalls(name, count)
            result.syscalls[name] = count

        # Page faults: user faults on the app, the host-wide remainder as
        # kernel-side faults (other processes, ksgxswapd write-back).
        per100 = requests / 100.0
        user_faults = _round_rate(rates.at("user_faults", connections) * per100, rng)
        total_faults = _round_rate(rates.at("total_faults", connections) * per100, rng)
        if user_faults:
            kernel.memory.account_faults(pid, user_faults, kind=FaultKind.NO_PAGE_FOUND)
        host_remainder = max(0, total_faults - user_faults)
        if host_remainder:
            kernel.memory.account_faults(0, host_remainder, kernel=True)
        result.user_faults = user_faults
        result.host_faults = total_faults

        # LLC traffic.
        misses = _round_rate(rates.at("llc_misses", connections) * per100, rng)
        if misses:
            references = int(misses / max(1e-9, self.calibration.llc_miss_ratio))
            kernel.llc.account(references=references, misses=misses, pid=pid)
        result.llc_misses = misses

        # EPC churn (enclave runtimes only).
        churn = _round_rate(rates.at("epc_evictions", connections) * per100, rng)
        if churn and self.enclave is not None and self.driver is not None:
            self.driver.churn_pages(self.enclave, churn)
        result.epc_churn_pages = churn

        # Context switches: the app's own, plus host-wide extras.
        ctx_proc = _round_rate(
            rates.at("ctx_switches_process", connections) * per100, rng
        )
        ctx_host = _round_rate(rates.at("ctx_switches_host", connections) * per100, rng)
        if ctx_proc:
            kernel.scheduler.account_switches(pid, ctx_proc)
        extra = max(0, ctx_host - ctx_proc)
        if extra:
            kernel.scheduler.account_switches(0, extra)
        result.ctx_process = ctx_proc
        result.ctx_host_extra = extra

        # CPU time for the slice.
        busy_ns = int(requests * self.per_request_cost_ns(connections, db_bytes))
        kernel.scheduler.account_cpu_time(self._main_thread, min(busy_ns, duration_ns))
        return result


def _round_rate(value: float, rng) -> int:
    """Stochastic rounding: preserves expected values of fractional rates."""
    base = int(value)
    fraction = value - base
    if fraction > 0 and rng.chance(fraction):
        base += 1
    return base
