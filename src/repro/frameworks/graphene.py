"""The Graphene-SGX runtime model.

A library OS runs inside the enclave (§3.2); the application's syscalls
are served by the libOS, and anything requiring the host — network I/O,
timers before the fix, polling — is a **synchronous OCALL**: a full
enclave exit, untrusted helper execution, and re-entry.  That is the
mechanism behind every Graphene pathology the paper measures:

* throughput *declines* with connections (Figure 8(d)) because the libOS
  polls all handles inside the enclave, an O(connections) scan per
  request (the calibrated ``per_connection_cost_ns``);
* host-wide context switches reach ~12x the other frameworks
  (Figure 11(f)) because each OCALL bounces between the enclave thread
  and its untrusted helper.
"""

from __future__ import annotations

from typing import Optional

from repro.calibration.profiles import GRAPHENE_CALIBRATION, FrameworkCalibration
from repro.errors import FrameworkError
from repro.frameworks.base import SgxFramework


class GrapheneRuntime(SgxFramework):
    """Graphene-SGX: libOS in the enclave, synchronous OCALL syscalls."""

    def __init__(self, calibration: Optional[FrameworkCalibration] = None) -> None:
        super().__init__(calibration or GRAPHENE_CALIBRATION)
        self.ocalls_issued = 0

    def _dispatch_syscalls(self, name: str, count: int) -> int:
        kernel = self._require_setup()
        if self.enclave is None:
            raise FrameworkError("graphene: enclave missing")
        # Every host syscall is an OCALL round trip.
        cost = self.enclave.ocall(count)
        self.ocalls_issued += count
        cost += kernel.syscalls.dispatch(name, self.process.pid, count=count)
        return cost
