"""Long-soak tests: retention, memory bounds, and stability over a
24-hour virtual deployment."""

import pytest

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.frameworks.scone import SconeRuntime
from repro.simkernel.clock import seconds
from repro.teemon import TeemonConfig, deploy


def test_8h_deployment_respects_retention_bound(sgx_kernel):
    """With 1 h retention, the TSDB's sample count and memory stop growing
    long before 8 h of scrapes have accumulated."""
    deployment = deploy(
        sgx_kernel,
        TeemonConfig(retention_hours=1.0, scrape_interval_s=5.0,
                     enable_recording_rules=False),
    )
    process = sgx_kernel.spawn_process("redis-server")
    checkpoints = []
    for hour in range(8):
        sgx_kernel.syscalls.dispatch("read", process.pid, count=100_000)
        sgx_kernel.clock.advance(seconds(3600))
        checkpoints.append(
            (deployment.tsdb.sample_count(), deployment.tsdb.memory_bytes())
        )
    # Steady state: the last several checkpoints stay within a small band
    # (chunk-granular retention wobbles, but growth must be gone).
    tail_counts = [c for c, _ in checkpoints[-4:]]
    assert max(tail_counts) - min(tail_counts) < max(tail_counts) * 0.2
    # Steady state holds roughly one retention window of samples: about
    # (1 h / 5 s) scrapes per live series, plus chunk-granularity slack —
    # far below the 8 h an unretained database would hold.
    per_hour_scrapes = 3600 / 5
    window_estimate = per_hour_scrapes * deployment.tsdb.series_count()
    assert checkpoints[-1][0] < 2 * window_estimate
    assert checkpoints[-1][0] < 8 * window_estimate / 3  # ≪ unretained
    deployment.shutdown()


def test_idle_deployment_alert_state_stable(sgx_kernel):
    """An idle host must not accumulate alerts or analyzer reports beyond
    the expected cadence over 6 virtual hours."""
    deployment = deploy(sgx_kernel, TeemonConfig(retention_hours=2.0))
    sgx_kernel.clock.advance(seconds(6 * 3600))
    # Analyses ran once per minute.
    assert deployment.analyzer.analyses_total == 6 * 60
    # No spurious alerts on an idle host (EpcNearlyFull cannot fire: the
    # EPC is empty; syscall storms cannot fire: no syscalls).
    assert deployment.session.active_alerts() == []
    deployment.shutdown()


def test_long_benchmark_under_monitoring_is_stable(sgx_kernel):
    """A 10-minute monitored benchmark: throughput per slice stays flat
    (no drift from monitoring state accumulation)."""
    deployment = deploy(sgx_kernel)
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320)
    bench.prepopulate(runtime, server, value_size=64)
    result = bench.run(runtime, server, duration_s=600.0, slice_s=5.0,
                       ebpf_active=True, full_monitoring=True)
    rates = [p.throughput_rps for p in result.slices]
    assert max(rates) - min(rates) < 0.01 * max(rates)
    # The TSDB holds a coherent, queryable 10-minute history.
    series = deployment.session.query_range(
        'rate(ebpf_syscalls_total{name="futex"}[1m])', window_s=540, step_s=30
    )
    assert series and len(series[0].samples) >= 15
    values = [s.value for s in series[0].samples]
    assert all(v > 0 for v in values)
    deployment.shutdown()
