"""SGX framework models: native, SCONE, Graphene-SGX and SGX-LKL.

Each runtime implements the mechanism the paper describes for it (§3.2):

* :class:`~repro.frameworks.native.NativeRuntime` — no enclave; syscalls
  go straight to the kernel (the evaluation baseline);
* :class:`~repro.frameworks.scone.SconeRuntime` — the whole application in
  the enclave, with an **asynchronous syscall queue**: enclave threads
  push syscall requests, outside threads execute them, so a syscall does
  not force an enclave exit.  Supports the two code-evolution commits of
  §6.4 (clock_gettime via the queue vs handled in-enclave);
* :class:`~repro.frameworks.graphene.GrapheneRuntime` — a library OS in
  the enclave; every host syscall is a synchronous OCALL round trip;
* :class:`~repro.frameworks.sgxlkl.SgxLklRuntime` — an in-enclave Linux
  Kernel Library: most syscalls are served inside the enclave, only disk
  and network I/O cross the boundary.

Quantities (request costs, event rates) come from
:mod:`repro.calibration.profiles`; mechanisms (queues, OCALLs, EPC churn)
execute here and fire the kernel hooks TEEMon measures.
"""

from repro.frameworks.base import SgxFramework, WorkloadSlice
from repro.frameworks.graphene import GrapheneRuntime
from repro.frameworks.native import NativeRuntime
from repro.frameworks.scone import SconeRuntime
from repro.frameworks.sgxlkl import SgxLklRuntime

ALL_FRAMEWORKS = ("native", "scone", "sgx-lkl", "graphene-sgx")


def create_runtime(name: str, **kwargs) -> SgxFramework:
    """Factory: construct a runtime by calibration name."""
    if name == "native":
        return NativeRuntime(**kwargs)
    if name == "scone":
        return SconeRuntime(**kwargs)
    if name == "sgx-lkl":
        return SgxLklRuntime(**kwargs)
    if name == "graphene-sgx":
        return GrapheneRuntime(**kwargs)
    from repro.errors import FrameworkError

    raise FrameworkError(f"unknown framework: {name!r}; known: {ALL_FRAMEWORKS}")


__all__ = [
    "SgxFramework",
    "WorkloadSlice",
    "NativeRuntime",
    "SconeRuntime",
    "GrapheneRuntime",
    "SgxLklRuntime",
    "ALL_FRAMEWORKS",
    "create_runtime",
]
