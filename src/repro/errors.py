"""Exception hierarchy shared across the repro packages.

Every package raises subclasses of :class:`ReproError` so callers can catch
a single base class at API boundaries while still being able to discriminate
failure domains (kernel, eBPF, SGX, query language, orchestration).
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulated kernel was driven into an invalid state."""


class HookError(SimulationError):
    """Unknown hook name or invalid hook attachment."""


class SchedulerError(SimulationError):
    """Invalid scheduler operation (e.g. running an exited thread)."""


class MemoryError_(SimulationError):
    """Virtual-memory model violation (bad address, double map, ...)."""


class SyscallError(SimulationError):
    """Unknown syscall number or malformed syscall invocation."""


class EbpfError(ReproError):
    """Base class for eBPF subsystem failures."""


class VerifierError(EbpfError):
    """The static verifier rejected a program."""


class VmFault(EbpfError):
    """The eBPF VM faulted at runtime (division by zero, bad map fd...)."""


class MapError(EbpfError):
    """Invalid BPF map operation."""


class SgxError(ReproError):
    """Base class for SGX-model failures."""


class EpcExhaustedError(SgxError):
    """No EPC page could be allocated and eviction is disabled."""


class EnclaveError(SgxError):
    """Invalid enclave lifecycle operation."""


class FrameworkError(ReproError):
    """An SGX framework model rejected an operation."""


class NetworkError(ReproError):
    """Simulated network failure (unreachable endpoint, ...)."""


class StorageError(ReproError):
    """Simulated durable-medium misuse (unknown file, bad offset, ...)."""


class OpenMetricsError(ReproError):
    """Malformed OpenMetrics exposition text or invalid metric usage."""


class TsdbError(ReproError):
    """Time-series database misuse (out-of-order append, bad labels...)."""


class QueryError(TsdbError):
    """The query engine could not parse or evaluate an expression."""


class WalError(TsdbError):
    """Write-ahead-log misuse (bad segment name, oversized record, ...)."""


class AnalysisError(ReproError):
    """PMAN analysis failure (bad rule, empty window where one is needed)."""


class OrchestrationError(ReproError):
    """Container/Kubernetes model misuse."""


class DeploymentError(ReproError):
    """TEEMon deployment failure."""
