"""Per-framework calibration constants.

Every number here is anchored to a statement in the paper's evaluation
(§6.5, Figures 8–11) or to the SGX-framework literature it cites.  The
framework models consume these; nothing else in the library hard-codes
performance numbers.

Event-rate tables are *per 100 GET requests* at the six configurations of
Figure 11 — connections in ``CONN_POINTS`` crossed with a small (fits EPC)
or large (exceeds EPC) database — and are linearly interpolated in the
connection dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Connection counts at which Figure 11 reports rates.
CONN_POINTS: Tuple[int, int, int] = (8, 320, 580)

#: Usable EPC in bytes; databases above this are "large" (the paper's
#: 105/127 MB configurations).
EPC_USABLE_BYTES = 94 * 1024 * 1024

RateTriple = Tuple[float, float, float]


def interpolate_rate(points: RateTriple, connections: int) -> float:
    """Piecewise-linear interpolation over CONN_POINTS, clamped outside."""
    xs = CONN_POINTS
    if connections <= xs[0]:
        return points[0]
    if connections >= xs[2]:
        return points[2]
    if connections <= xs[1]:
        left, right, lo, hi = xs[0], xs[1], points[0], points[1]
    else:
        left, right, lo, hi = xs[1], xs[2], points[1], points[2]
    fraction = (connections - left) / (right - left)
    return lo + fraction * (hi - lo)


@dataclass(frozen=True)
class EventRates:
    """Event rates per 100 GET requests at the CONN_POINTS."""

    user_faults: RateTriple
    total_faults: RateTriple        # host-wide (Figure 11(b))
    llc_misses: RateTriple
    epc_evictions: RateTriple
    ctx_switches_process: RateTriple
    ctx_switches_host: RateTriple

    def at(self, field_name: str, connections: int) -> float:
        """Interpolated rate for one event class."""
        return interpolate_rate(getattr(self, field_name), connections)


@dataclass(frozen=True)
class FrameworkCalibration:
    """All calibrated constants of one runtime."""

    name: str
    #: Per-request service cost of the Redis GET path under this runtime
    #: (memtier workload, pipeline 8), nanoseconds. 1/cost = CPU-bound peak.
    request_cost_ns: float
    #: Additional per-request cost per client connection (Graphene's
    #: in-libOS polling scan; ~0 elsewhere), nanoseconds per connection.
    per_connection_cost_ns: float
    #: In-flight requests at which the pipeline reaches half of capacity
    #: (throughput ramp: inflight / (inflight + half_saturation)).
    half_saturation_inflight: float
    #: Throughput decline when offered load exceeds capacity (native's
    #: post-320-connection network squeeze; SCONE's futex contention).
    oversubscription_decay: float
    #: Multiplicative throughput penalty by database size (bytes-keyed
    #: breakpoints; interpolated on the DB-size axis).
    db_penalty: Tuple[Tuple[int, float], ...]
    #: Optional throughput dip (center_connections, width, depth 0..1) —
    #: SGX-LKL's anomaly at 560 connections in Figure 8(c).
    dip: Optional[Tuple[float, float, float]]
    #: Event rates for small (<= EPC) and large (> EPC) databases.
    rates_small_db: EventRates
    rates_large_db: EventRates
    #: Syscall mix per request (name -> calls per GET) for the Redis
    #: workload; drives both Figure 6-style breakdowns and eBPF overhead.
    syscalls_per_request: Tuple[Tuple[str, float], ...]
    #: LLC miss ratio used to derive references from the miss rates.
    llc_miss_ratio: float
    #: Whether the runtime executes inside an enclave at all.
    uses_enclave: bool = True
    #: Enclave heap configured in the paper's head-to-head (1 GB).
    enclave_heap_bytes: int = 1 << 30
    #: Connection count beyond which contention erodes throughput (0 = no
    #: knee).  Native's post-320 decline; SCONE's post-560 futex contention.
    contention_knee_connections: float = 0.0
    #: Strength of the post-knee decline.
    contention_decay: float = 0.0

    def rates(self, db_bytes: int) -> EventRates:
        """Rate table for a database size."""
        return (
            self.rates_large_db if db_bytes > EPC_USABLE_BYTES else self.rates_small_db
        )

    def db_penalty_for(self, db_bytes: int) -> float:
        """Interpolated throughput penalty for a database size."""
        points = self.db_penalty
        if db_bytes <= points[0][0]:
            return points[0][1]
        for (left_size, left_val), (right_size, right_val) in zip(points, points[1:]):
            if db_bytes <= right_size:
                fraction = (db_bytes - left_size) / (right_size - left_size)
                return left_val + fraction * (right_val - left_val)
        return points[-1][1]

    def events_per_request(self) -> float:
        """Total instrumented syscall events per request (overhead model)."""
        return sum(rate for _, rate in self.syscalls_per_request)


MIB = 1024 * 1024

# ---------------------------------------------------------------------------
# Native (vanilla Redis, no SGX): Fig. 8(a) — 1.01–1.2 M IOP/s peaking at
# 320 connections, then a slight decline as the 1 GbE link saturates;
# latency ~2 ms at 320 connections (= Little's law on 2560 in-flight).
# ---------------------------------------------------------------------------
NATIVE_CALIBRATION = FrameworkCalibration(
    name="native",
    request_cost_ns=760.0,
    per_connection_cost_ns=0.0,
    half_saturation_inflight=230.0,
    oversubscription_decay=2.0,
    db_penalty=((78 * MIB, 1.0), (105 * MIB, 0.92), (127 * MIB, 0.86)),
    dip=None,
    rates_small_db=EventRates(
        user_faults=(0.0, 0.0, 0.0),
        total_faults=(607.0, 170.0, 120.0),
        llc_misses=(1.8, 10.0, 23.0),
        epc_evictions=(0.0, 0.0, 0.0),
        ctx_switches_process=(0.14, 0.05, 0.04),
        ctx_switches_host=(45.0, 40.0, 37.0),
    ),
    rates_large_db=EventRates(
        user_faults=(0.0, 0.0, 0.0),
        total_faults=(607.0, 170.0, 120.0),
        llc_misses=(2.0, 12.0, 23.0),
        epc_evictions=(0.0, 0.0, 0.0),
        ctx_switches_process=(0.14, 0.05, 0.04),
        ctx_switches_host=(45.0, 40.0, 37.0),
    ),
    syscalls_per_request=(
        ("read", 0.125), ("write", 0.125), ("epoll_wait", 0.125),
        ("clock_gettime", 0.30),
    ),
    llc_miss_ratio=0.02,
    uses_enclave=False,
    contention_knee_connections=320.0,
    contention_decay=0.30,
)

# ---------------------------------------------------------------------------
# SCONE: Fig. 8(b) — peak 278 K IOP/s at 560 connections (~23 % of native);
# -12 % at 105 MB, a further drop at 127 MB; Fig. 11(d) — up to 137 evicted
# EPC pages / 100 GETs at 580 C / 105 MB.  Asynchronous syscalls mean few
# kernel syscalls per request but futex traffic for the queue wakeups.
# ---------------------------------------------------------------------------
SCONE_CALIBRATION = FrameworkCalibration(
    name="scone",
    request_cost_ns=3_050.0,
    per_connection_cost_ns=0.0,
    half_saturation_inflight=900.0,
    oversubscription_decay=0.25,
    db_penalty=((78 * MIB, 1.0), (105 * MIB, 0.885), (127 * MIB, 0.78)),
    dip=None,
    rates_small_db=EventRates(
        user_faults=(0.0, 0.001, 0.001),
        total_faults=(500.0, 900.0, 1400.0),
        llc_misses=(29.0, 55.0, 80.0),
        epc_evictions=(0.5, 1.0, 2.0),
        ctx_switches_process=(0.5, 0.3, 0.3),
        ctx_switches_host=(60.0, 90.0, 110.0),
    ),
    rates_large_db=EventRates(
        user_faults=(0.03, 0.069, 0.064),
        total_faults=(700.0, 1500.0, 2200.0),
        llc_misses=(35.0, 70.0, 103.0),
        epc_evictions=(20.0, 90.0, 137.0),
        ctx_switches_process=(0.55, 0.33, 0.33),
        ctx_switches_host=(70.0, 100.0, 125.0),
    ),
    syscalls_per_request=(
        ("read", 0.125), ("write", 0.125), ("epoll_wait", 0.125),
        ("futex", 0.9), ("clock_gettime", 0.05),
    ),
    llc_miss_ratio=0.06,
    contention_knee_connections=560.0,
    contention_decay=0.30,
)

# ---------------------------------------------------------------------------
# SGX-LKL: Fig. 8(c) — peak 121 K IOP/s at 320 connections, a steep dip at
# 560 with recovery after; Fig. 11(e) — the most per-process context
# switches (in-enclave LKL scheduler).
# ---------------------------------------------------------------------------
SGXLKL_CALIBRATION = FrameworkCalibration(
    name="sgx-lkl",
    request_cost_ns=6_900.0,
    per_connection_cost_ns=0.0,
    half_saturation_inflight=550.0,
    oversubscription_decay=0.05,
    db_penalty=((78 * MIB, 1.0), (105 * MIB, 0.93), (127 * MIB, 0.88)),
    dip=(560.0, 110.0, 0.45),
    rates_small_db=EventRates(
        user_faults=(0.0, 0.004, 0.005),
        total_faults=(500.0, 1000.0, 1500.0),
        llc_misses=(30.0, 60.0, 85.0),
        epc_evictions=(1.0, 1.4, 1.6),
        ctx_switches_process=(1.5, 2.0, 2.5),
        ctx_switches_host=(65.0, 95.0, 115.0),
    ),
    rates_large_db=EventRates(
        user_faults=(0.025, 0.03, 0.03),
        total_faults=(650.0, 1400.0, 2100.0),
        llc_misses=(40.0, 75.0, 100.0),
        epc_evictions=(1.2, 1.5, 1.7),
        ctx_switches_process=(1.6, 2.1, 2.6),
        ctx_switches_host=(75.0, 105.0, 125.0),
    ),
    syscalls_per_request=(
        ("read", 0.125), ("write", 0.125), ("futex", 0.4),
        ("clock_gettime", 0.1),
    ),
    llc_miss_ratio=0.06,
)

# ---------------------------------------------------------------------------
# Graphene-SGX: Fig. 8(d) — best at 8 connections (~20 K IOP/s, 1.6 % of
# native) and *declining* with more connections (in-enclave polling over
# all handles); 20 K -> 12 K when the DB grows to 105 MB; ~249 ms latency
# at 320 connections; Fig. 11(f) — host context switches up to 12x others.
# ---------------------------------------------------------------------------
GRAPHENE_CALIBRATION = FrameworkCalibration(
    name="graphene-sgx",
    request_cost_ns=46_000.0,
    per_connection_cost_ns=147.0,
    half_saturation_inflight=4.0,
    oversubscription_decay=0.0,
    db_penalty=((78 * MIB, 1.0), (105 * MIB, 0.60), (127 * MIB, 0.50)),
    dip=None,
    rates_small_db=EventRates(
        user_faults=(0.02, 0.02, 0.02),
        total_faults=(900.0, 2500.0, 4000.0),
        llc_misses=(91.0, 120.0, 140.0),
        epc_evictions=(0.005, 0.01, 0.02),
        ctx_switches_process=(0.9, 1.2, 1.5),
        ctx_switches_host=(100.0, 180.0, 250.0),
    ),
    rates_large_db=EventRates(
        user_faults=(0.03, 0.03, 0.03),
        total_faults=(1200.0, 5000.0, 8996.0),
        llc_misses=(100.0, 140.0, 161.0),
        epc_evictions=(0.01, 0.02, 0.03),
        ctx_switches_process=(1.0, 1.3, 1.6),
        ctx_switches_host=(120.0, 220.0, 304.0),
    ),
    syscalls_per_request=(
        ("read", 1.0), ("write", 1.0), ("epoll_wait", 1.0),
        ("futex", 1.5), ("clock_gettime", 0.5),
    ),
    llc_miss_ratio=0.08,
)
