"""An NGINX-like static web server model.

Used by the Figure-5 overhead experiment.  NGINX's request path is
syscall-dense relative to its compute — accept, read, open/stat of the
document, sendfile-ish writes, close — which is exactly why it shows the
*highest* monitoring overhead in the paper (87 % of baseline): every one of
those syscalls is an instrumented event.

The load is aggregate: :meth:`NginxLikeServer.run_load_slice` replays a
slice's worth of requests as their syscall mix plus the page-cache reads
of the served documents, producing the kprobe traffic TEEMon's cache
metrics count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.frameworks.base import SgxFramework, monitoring_factor

#: Syscalls per HTTP request (keep-alive connections, small static files).
SYSCALLS_PER_REQUEST: Tuple[Tuple[str, float], ...] = (
    ("read", 1.0),        # request read
    ("open", 0.5),        # document open (fd cache misses)
    ("close", 0.5),
    ("writev", 1.5),      # response header + body
    ("epoll_wait", 1.0),
    ("clock_gettime", 2.0),  # access-log timestamps + keepalive timers
    ("accept4", 0.1),
)

#: In-enclave service cost per request under SCONE, ns (≈ 80 K req/s peak).
REQUEST_COST_NS = 12_000.0


@dataclass
class HttpStats:
    """Request counters."""

    requests: int = 0
    bytes_sent: int = 0


class NginxLikeServer:
    """Static file server over the simulated page cache."""

    def __init__(self, name: str = "nginx") -> None:
        self.name = name
        self.stats = HttpStats()

    @staticmethod
    def events_per_request() -> float:
        """Instrumented syscall events per request."""
        return sum(rate for _, rate in SYSCALLS_PER_REQUEST)

    def run_load_slice(
        self,
        runtime: SgxFramework,
        requests: int,
        duration_ns: int,
        document_bytes: int = 4096,
    ) -> None:
        """Replay ``requests`` worth of HTTP traffic in aggregate."""
        if requests <= 0:
            return
        kernel = runtime._require_setup()  # noqa: SLF001
        pid = runtime.process.pid
        for name, per_request in SYSCALLS_PER_REQUEST:
            count = int(per_request * requests)
            if count > 0:
                runtime._dispatch_syscalls(name, count)  # noqa: SLF001
        kernel.page_cache.account_activity(
            pid, reads=requests * max(1, document_bytes // 4096), hit_ratio=0.97
        )
        self.stats.requests += requests
        self.stats.bytes_sent += requests * document_bytes

    def achievable_rate(
        self,
        runtime: SgxFramework,
        ebpf_active: bool = False,
        full_monitoring: bool = False,
    ) -> float:
        """Requests/s under the runtime and monitoring configuration."""
        overhead = monitoring_factor(
            self.events_per_request(), REQUEST_COST_NS, ebpf_active, full_monitoring
        )
        return (1e9 / REQUEST_COST_NS) * overhead
