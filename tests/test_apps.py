"""Application model tests: KV store, clients, web server, doc store."""

import pytest

from repro.apps.clients import MemtierBenchmark, RedisBenchmark
from repro.apps.docstore import MongoLikeServer
from repro.apps.kvstore import (
    PAPER_DB_SIZES,
    RedisLikeServer,
    db_bytes_for,
)
from repro.apps.webserver import NginxLikeServer
from repro.errors import ReproError
from repro.frameworks.native import NativeRuntime
from repro.frameworks.scone import SconeRuntime

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# KV store
# ---------------------------------------------------------------------------
def test_paper_db_size_mapping():
    assert db_bytes_for(720_000, 32) == 78 * MIB
    assert db_bytes_for(720_000, 64) == 105 * MIB
    assert db_bytes_for(720_000, 96) == 127 * MIB
    assert PAPER_DB_SIZES[32] == 78 * MIB


def test_generic_db_size_formula():
    assert db_bytes_for(1000, 50) == 1000 * (50 + 81)


def test_synthetic_population():
    server = RedisLikeServer()
    server.populate_synthetic(720_000, 64)
    assert server.key_count == 720_000
    assert server.db_bytes == 105 * MIB
    assert server.value_size == 64


def test_bad_population_rejected():
    with pytest.raises(ReproError):
        RedisLikeServer().populate_synthetic(-1, 32)
    with pytest.raises(ReproError):
        RedisLikeServer().populate_synthetic(10, 0)


def test_get_response_bytes_includes_resp_overhead():
    server = RedisLikeServer()
    server.populate_synthetic(100, 64)
    assert server.get_response_bytes() == 64 + 12


# ---------------------------------------------------------------------------
# Memtier client
# ---------------------------------------------------------------------------
def test_memtier_connections_must_be_thread_multiple():
    with pytest.raises(ReproError):
        MemtierBenchmark(threads=8, connections=10)
    MemtierBenchmark(threads=8, connections=16)  # fine


def test_memtier_prepopulate_sets_db(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=8)
    db = bench.prepopulate(runtime, server, keys=720_000, value_size=32)
    assert db == 78 * MIB


def test_memtier_run_produces_slices_and_requests(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=64)
    bench.prepopulate(runtime, server, value_size=32)
    result = bench.run(runtime, server, duration_s=5.0, slice_s=1.0)
    assert len(result.slices) == 5
    assert result.requests_total > 0
    assert result.throughput_rps > 0
    assert result.latency_ms > 0
    assert result.framework == "native"


def test_memtier_run_advances_virtual_clock(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=8)
    bench.prepopulate(runtime, server, value_size=32)
    start = kernel.clock.now_ns
    bench.run(runtime, server, duration_s=3.0)
    assert kernel.clock.now_ns - start == 3 * 10**9


def test_monitoring_reduces_throughput(sgx_kernel):
    def run(ebpf, full):
        runtime = SconeRuntime()
        runtime.setup(sgx_kernel)
        server = RedisLikeServer()
        bench = MemtierBenchmark(connections=64)
        bench.prepopulate(runtime, server, value_size=32)
        result = bench.run(runtime, server, duration_s=2.0,
                           ebpf_active=ebpf, full_monitoring=full)
        runtime.teardown()
        return result.throughput_rps

    off = run(False, False)
    ebpf = run(True, False)
    full = run(True, True)
    assert full < ebpf < off
    # Paper envelope: total overhead within 5-17%.
    assert 0.80 < full / off < 0.96


def test_memtier_bad_durations(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=8)
    with pytest.raises(ReproError):
        bench.run(runtime, server, duration_s=0)
    with pytest.raises(ReproError):
        bench.run(runtime, server, duration_s=1.0, slice_s=2.0)


def test_redis_benchmark_single_host_uncapped(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = RedisBenchmark(connections=48, pipeline=16)
    result = bench.run(runtime, server, duration_s=3.0)
    # Loopback: should reach near the CPU-bound capacity (~1.3 M/s),
    # far beyond what a 1 GbE link would carry at this value size.
    assert result.throughput_rps > 800_000


# ---------------------------------------------------------------------------
# Web server
# ---------------------------------------------------------------------------
def test_nginx_aggregate_load_emits_syscalls(sgx_kernel):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel, app_name="nginx")
    server = NginxLikeServer()
    server.run_load_slice(runtime, requests=10_000, duration_ns=10**9)
    assert sgx_kernel.syscalls.count_of("writev") > 0
    assert sgx_kernel.page_cache.stats.hits > 0
    assert server.stats.requests == 10_000


def test_nginx_overhead_is_largest_of_the_three(sgx_kernel):
    nginx = NginxLikeServer()
    mongo = MongoLikeServer()
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    nginx_norm = nginx.achievable_rate(runtime, True, True) / nginx.achievable_rate(runtime)
    mongo_norm = mongo.achievable_rate(runtime, True, True) / mongo.achievable_rate(runtime)
    assert nginx_norm < mongo_norm  # NGINX suffers more (paper: 87% vs 95%)
