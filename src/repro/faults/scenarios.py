"""Seeded *workload* fault scenarios — misbehaviour to be detected.

The network/disk injectors perturb the monitoring pipeline's transport
and storage; these scenarios perturb the *monitored workload* instead:
EPC paging storms, AEX floods, syscall-latency outliers.  They exist for
the detection test family — the anomaly detector
(:mod:`repro.trace.detect`) must flag every injected burst and stay
silent on the clean same-seed control run.

Each scenario is a schedule of bursts on the virtual clock, recorded in
its own :attr:`~WorkloadScenario.fired` list.  Scenarios are driven by
calling :meth:`tick` as virtual time advances (typically once per scrape
cycle); firing is a pure function of the schedule and the clock, hence
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.simkernel.clock import NANOS_PER_SEC


@dataclass(frozen=True)
class Burst:
    """One scheduled burst: fire once when the clock passes ``at_s``."""

    at_s: float
    magnitude: int

    @property
    def at_ns(self) -> int:
        return int(self.at_s * NANOS_PER_SEC)


class WorkloadScenario:
    """Base: a burst schedule driven by :meth:`tick`."""

    def __init__(self, bursts: Sequence[Burst]) -> None:
        self._bursts: List[Burst] = sorted(bursts, key=lambda b: b.at_ns)
        self._next = 0
        self.fired: List[Tuple[int, int]] = []  # (time_ns, magnitude)

    def tick(self, now_ns: int) -> int:
        """Fire every burst scheduled at or before ``now_ns``; returns
        how many fired."""
        fired = 0
        while (self._next < len(self._bursts)
               and self._bursts[self._next].at_ns <= now_ns):
            burst = self._bursts[self._next]
            self._next += 1
            self._fire(now_ns, burst.magnitude)
            self.fired.append((now_ns, burst.magnitude))
            fired += 1
        return fired

    def pending(self) -> int:
        """Bursts not yet fired."""
        return len(self._bursts) - self._next

    def _fire(self, now_ns: int, magnitude: int) -> None:
        raise NotImplementedError


class EpcThrashScenario(WorkloadScenario):
    """EPC paging storm: churn ``magnitude`` pages through EWB/ELD.

    Drives :meth:`repro.sgx.driver.SgxDriver.churn_pages`, which advances
    the eviction/reclaim counters the TME exporter publishes and charges
    the enclave one AEX per reclaimed page — exactly the signature the
    ``epc-thrash`` detector rule watches.
    """

    def __init__(self, driver, enclave, bursts) -> None:
        super().__init__(bursts)
        self._driver = driver
        self._enclave = enclave

    def _fire(self, now_ns: int, magnitude: int) -> None:
        self._driver.churn_pages(self._enclave, magnitude)


class AexStormScenario(WorkloadScenario):
    """AEX flood: ``magnitude`` asynchronous exits on one enclave.

    Models interrupt/exception storms hitting enclave execution (the
    classic SGX side-channel / preemption pressure signature) without
    moving any EPC pages — so it trips only the ``aex-storm`` rule.
    """

    def __init__(self, enclave, bursts) -> None:
        super().__init__(bursts)
        self._enclave = enclave

    def _fire(self, now_ns: int, magnitude: int) -> None:
        self._enclave.aex(magnitude)


class SyscallLatencyScenario(WorkloadScenario):
    """Syscall-latency outliers: slow ``sys_exit`` events on a pid.

    Fires the ``raw_syscalls:sys_exit`` tracepoint with an outlier
    ``latency_us``, which lands in the eBPF exporter's log2 latency
    histogram and drags the window p95 past the detector's floor.
    """

    def __init__(
        self,
        kernel,
        pid: int,
        bursts,
        latency_us: int = 8192,
        syscall_nr: int = 0,
        syscall_name: str = "read",
    ) -> None:
        super().__init__(bursts)
        self._kernel = kernel
        self._pid = pid
        self.latency_us = latency_us
        self._syscall_nr = syscall_nr
        self._syscall_name = syscall_name

    def _fire(self, now_ns: int, magnitude: int) -> None:
        self._kernel.hooks.fire(
            "raw_syscalls:sys_exit", now_ns, count=magnitude,
            pid=self._pid, syscall_nr=self._syscall_nr,
            syscall_name=self._syscall_name, latency_us=self.latency_us,
        )


__all__ = [
    "AexStormScenario",
    "Burst",
    "EpcThrashScenario",
    "SyscallLatencyScenario",
    "WorkloadScenario",
]
