"""Baseline profiler tests: sgx-perf and TEE-Perf models."""

import pytest

from repro.frameworks.graphene import GrapheneRuntime
from repro.frameworks.scone import SconeRuntime
from repro.profilers.sgxperf import ProfilerStateError, SgxPerf
from repro.profilers.teeperf import (
    PER_CALL_COST_NS,
    REDIS_GET_CALL_PROFILE,
    TeePerf,
)
from repro.errors import ReproError

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# sgx-perf
# ---------------------------------------------------------------------------
def test_sgxperf_records_graphene_transitions(sgx_kernel):
    runtime = GrapheneRuntime()
    runtime.setup(sgx_kernel)
    profiler = SgxPerf(sgx_kernel, runtime)
    profiler.record()
    runtime._dispatch_syscalls("read", 500)
    sgx_kernel.clock.advance(10**9)
    report = profiler.stop()
    assert report.sdk_compatible
    assert report.ocalls == 500
    assert report.duration_ns == 10**9


def test_sgxperf_blind_to_scone(sgx_kernel):
    """The paper's limitation: sgx-perf only supports SDK-style apps."""
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    profiler = SgxPerf(sgx_kernel, runtime)
    assert not profiler.sdk_compatible
    profiler.record()
    runtime._dispatch_syscalls("read", 500)  # through the async queue
    report = profiler.stop()
    assert report.ocalls == 0
    assert not report.sdk_compatible


def test_sgxperf_no_runtime_reporting(sgx_kernel):
    """The limitation TEEMon removes: no report during the run."""
    runtime = GrapheneRuntime()
    runtime.setup(sgx_kernel)
    profiler = SgxPerf(sgx_kernel, runtime)
    profiler.record()
    with pytest.raises(ProfilerStateError, match="two-phased"):
        profiler.report()
    profiler.stop()
    assert profiler.report() is not None


def test_sgxperf_records_paging(sgx_kernel, driver):
    runtime = GrapheneRuntime()
    runtime.setup(sgx_kernel)
    runtime.load_working_set(50 * MIB)
    profiler = SgxPerf(sgx_kernel, runtime)
    profiler.record()
    driver.churn_pages(runtime.enclave, 1000)
    report = profiler.stop()
    assert report.pages_evicted == 1000
    assert report.pages_reclaimed == 1000
    assert profiler.overhead_ns > 0  # recording shim charged per event


def test_sgxperf_state_machine(sgx_kernel):
    runtime = GrapheneRuntime()
    runtime.setup(sgx_kernel)
    profiler = SgxPerf(sgx_kernel, runtime)
    with pytest.raises(ProfilerStateError):
        profiler.stop()
    with pytest.raises(ProfilerStateError):
        profiler.report()
    profiler.record()
    with pytest.raises(ProfilerStateError):
        profiler.record()


def test_sgxperf_requires_enclave(kernel):
    from repro.frameworks.native import NativeRuntime

    runtime = NativeRuntime()
    runtime.setup(kernel)
    profiler = SgxPerf(kernel, runtime)
    with pytest.raises(ProfilerStateError, match="enclave"):
        profiler.record()


# ---------------------------------------------------------------------------
# TEE-Perf
# ---------------------------------------------------------------------------
def test_teeperf_counts_method_calls():
    profiler = TeePerf()
    profiler.start(now_ns=0)
    profiler.profile_calls(10_000)
    report = profiler.stop(now_ns=10**9)
    assert report.instrumented_calls > 50_000  # ~9 calls per request
    # dictFind is the hot path (1.2 calls per request).
    hottest = max(report.call_counts, key=report.call_counts.get)
    assert hottest.endswith(";dictFind")


def test_teeperf_slowdown_near_paper_figure():
    """~1.9x average slowdown over native SGX execution (paper §2.1)."""
    profiler = TeePerf()
    profiler.start(0)
    requests = 100_000
    useful_ns = requests * 3_050  # SCONE per-request service time
    overhead = profiler.profile_calls(requests)
    report = profiler.stop(10**9)
    factor = report.slowdown_factor(useful_ns)
    assert 1.6 < factor < 2.2
    assert overhead == report.overhead_ns


def test_teeperf_overhead_far_exceeds_teemon():
    """TEE-Perf's per-call cost vs TEEMon's per-event cost, per request."""
    from repro.frameworks.base import EBPF_EVENT_COST_NS

    calls_per_request = sum(rate for _, rate in REDIS_GET_CALL_PROFILE)
    teeperf_per_request = calls_per_request * PER_CALL_COST_NS
    teemon_per_request = 1.5 * EBPF_EVENT_COST_NS  # ~1.5 syscall events
    assert teeperf_per_request > 5 * teemon_per_request


def test_teeperf_state_machine():
    profiler = TeePerf()
    with pytest.raises(ReproError):
        profiler.profile_calls(10)
    with pytest.raises(ReproError):
        profiler.stop(0)
    profiler.start(0)
    with pytest.raises(ReproError):
        profiler.start(0)
