"""A MongoDB-like document store model.

The Figure-5 experiment's third application.  MongoDB sits at the other
end of the overhead spectrum from NGINX: each operation does substantial
in-process work (BSON decode, index lookup, journal append) relative to
its syscall count, so monitoring costs it the least (95 % of baseline in
the paper).

The model is the operation's cost and its instrumented syscall mix
(journal group commits included); :meth:`MongoLikeServer.achievable_rate`
turns them into the operation rate under each monitoring configuration.
"""

from __future__ import annotations

from typing import Tuple

from repro.frameworks.base import SgxFramework, monitoring_factor

#: Syscalls per operation: few, large batches (snappy-compressed wire).
SYSCALLS_PER_OP: Tuple[Tuple[str, float], ...] = (
    ("recvfrom", 1.0),
    ("sendto", 1.0),
    ("futex", 2.0),
    ("clock_gettime", 1.0),
    ("fsync", 0.01),   # journal group commit
)

#: In-enclave service cost per operation under SCONE, ns (≈ 40 K op/s).
OP_COST_NS = 25_000.0


class MongoLikeServer:
    """Document store: per-operation cost and syscall mix."""

    def __init__(self, name: str = "mongod") -> None:
        self.name = name

    @staticmethod
    def events_per_op() -> float:
        """Instrumented syscall events per operation."""
        return sum(rate for _, rate in SYSCALLS_PER_OP)

    def achievable_rate(
        self,
        runtime: SgxFramework,
        ebpf_active: bool = False,
        full_monitoring: bool = False,
    ) -> float:
        """Operations/s under the runtime and monitoring configuration."""
        factor = monitoring_factor(
            self.events_per_op(), OP_COST_NS, ebpf_active, full_monitoring
        )
        return (1e9 / OP_COST_NS) * factor
