"""Load generators: memtier_benchmark and redis-benchmark models.

:class:`MemtierBenchmark` reproduces the paper's §6.5 configuration — 8
client threads, 8 connections each per indicated connection count, a
pipeline of 8 requests, GETs over the pre-populated keyspace, the two
hosts joined by a 1 GbE link.  It runs in virtual-time slices: each slice
asks the runtime for its achievable rate, replays that many requests'
worth of kernel events through the runtime, and advances the clock —
which also fires any scheduled scrapes and analyses, so TEEMon genuinely
monitors the benchmark as it runs.

:class:`RedisBenchmark` is the §6.4 single-host variant (no network cap)
used in the code-evolution experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.kvstore import RedisLikeServer, db_bytes_for
from repro.errors import ReproError
from repro.frameworks.base import SgxFramework, WorkloadSlice
from repro.net.network import Link
from repro.simkernel.clock import NANOS_PER_SEC, seconds


@dataclass
class SlicePoint:
    """Per-slice measurement."""

    time_s: float
    throughput_rps: float
    latency_ms: float
    #: Link utilisation during the slice.
    utilisation: float = 0.0


@dataclass
class BenchmarkResult:
    """Aggregate outcome of one benchmark run."""

    framework: str
    connections: int
    pipeline: int
    db_bytes: int
    value_size: int
    duration_s: float
    requests_total: int
    throughput_rps: float
    latency_ms: float
    slices: List[SlicePoint] = field(default_factory=list)
    emissions: List[WorkloadSlice] = field(default_factory=list)

    def describe(self) -> str:
        """One-line summary."""
        return (
            f"{self.framework:>12}  conns={self.connections:<4} "
            f"db={self.db_bytes // (1024 * 1024)}MB  "
            f"tput={self.throughput_rps / 1000:.1f} KIOP/s  "
            f"lat={self.latency_ms:.2f} ms"
        )


#: Base network round-trip of the switched 1 GbE testbed, milliseconds.
BASE_RTT_MS = 0.25


class MemtierBenchmark:
    """The §6.5 load generator."""

    def __init__(
        self,
        threads: int = 8,
        connections: int = 64,
        pipeline: int = 8,
        link: Optional[Link] = None,
    ) -> None:
        if threads <= 0 or connections <= 0 or pipeline <= 0:
            raise ReproError("benchmark parameters must be positive")
        if connections % threads:
            raise ReproError(
                f"connections ({connections}) must be a multiple of the "
                f"client threads ({threads}), as in the paper"
            )
        self.threads = threads
        self.connections = connections
        self.pipeline = pipeline
        self.link = link if link is not None else Link()

    # ------------------------------------------------------------------
    def prepopulate(
        self, runtime: SgxFramework, server: RedisLikeServer,
        keys: int = 720_000, value_size: int = 32,
    ) -> int:
        """SET phase: populate the keyspace; returns the database size."""
        server.populate_synthetic(keys, value_size)
        runtime.load_working_set(server.db_bytes)
        return server.db_bytes

    def network_cap_rps(self, server: RedisLikeServer) -> float:
        """Requests/s the link can carry for this value size."""
        response_bytes = max(1, server.get_response_bytes())
        return self.link.payload_bytes_per_s / response_bytes

    def run(
        self,
        runtime: SgxFramework,
        server: RedisLikeServer,
        duration_s: float = 30.0,
        slice_s: float = 1.0,
        ebpf_active: bool = False,
        full_monitoring: bool = False,
    ) -> BenchmarkResult:
        """Issue GETs for ``duration_s`` of virtual time."""
        if duration_s <= 0 or slice_s <= 0 or slice_s > duration_s:
            raise ReproError("bad benchmark duration/slice")
        kernel = runtime._require_setup()  # noqa: SLF001 - harness-level access
        db_bytes = server.db_bytes
        network_cap = self.network_cap_rps(server)
        slices: List[SlicePoint] = []
        emissions: List[WorkloadSlice] = []
        requests_total = 0
        elapsed = 0.0
        while elapsed < duration_s - 1e-9:
            step = min(slice_s, duration_s - elapsed)
            rate = runtime.achievable_rate(
                connections=self.connections,
                pipeline=self.pipeline,
                db_bytes=db_bytes,
                network_cap_rps=network_cap,
                ebpf_active=ebpf_active,
                full_monitoring=full_monitoring,
            )
            requests = int(rate * step)
            emission = runtime.emit_slice(
                requests=requests,
                connections=self.connections,
                db_bytes=db_bytes,
                duration_ns=int(step * NANOS_PER_SEC),
            )
            emissions.append(emission)
            requests_total += requests
            latency_ms = self._latency_ms(rate, network_cap)
            slices.append(
                SlicePoint(
                    time_s=kernel.clock.now_seconds,
                    throughput_rps=rate,
                    latency_ms=latency_ms,
                    utilisation=rate / max(network_cap, 1e-9),
                )
            )
            kernel.clock.advance(seconds(step))
            elapsed += step
        mean_tput = (
            sum(p.throughput_rps for p in slices) / len(slices) if slices else 0.0
        )
        mean_lat = sum(p.latency_ms for p in slices) / len(slices) if slices else 0.0
        return BenchmarkResult(
            framework=runtime.name,
            connections=self.connections,
            pipeline=self.pipeline,
            db_bytes=db_bytes,
            value_size=server.value_size,
            duration_s=duration_s,
            requests_total=requests_total,
            throughput_rps=mean_tput,
            latency_ms=mean_lat,
            slices=slices,
            emissions=emissions,
        )

    def _latency_ms(self, rate_rps: float, network_cap_rps: float) -> float:
        """Little's-law latency plus network base RTT and queueing."""
        if rate_rps <= 0:
            return float("inf")
        inflight = self.connections * self.pipeline
        service_ms = inflight / rate_rps * 1000.0
        # Offered load on the link in bytes/s: utilisation times capacity.
        utilisation = rate_rps / max(network_cap_rps, 1e-9)
        queueing_ms = self.link.queueing_delay_s(
            utilisation * self.link.payload_bytes_per_s
        ) * 1000.0
        return BASE_RTT_MS + service_ms + queueing_ms


class RedisBenchmark:
    """The §6.4 single-host load generator (no network cap)."""

    def __init__(self, connections: int = 50, pipeline: int = 1) -> None:
        if connections <= 0 or pipeline <= 0:
            raise ReproError("benchmark parameters must be positive")
        self.connections = connections
        self.pipeline = pipeline

    def run(
        self,
        runtime: SgxFramework,
        server: RedisLikeServer,
        duration_s: float = 30.0,
        slice_s: float = 1.0,
        ebpf_active: bool = False,
        full_monitoring: bool = False,
    ) -> BenchmarkResult:
        """Single-host run: loopback transport, no bandwidth cap."""
        memtier = MemtierBenchmark(
            threads=1, connections=self.connections, pipeline=self.pipeline,
            link=Link(bandwidth_bits_per_s=40e9, base_latency_s=0.000_02),
        )
        # redis-benchmark populates a small keyspace itself.
        if server.key_count == 0:
            server.populate_synthetic(100_000, 64)
            runtime.load_working_set(server.db_bytes)
        return memtier.run(
            runtime, server, duration_s=duration_s, slice_s=slice_s,
            ebpf_active=ebpf_active, full_monitoring=full_monitoring,
        )
