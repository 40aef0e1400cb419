"""Framework model tests: lifecycle, mechanisms, throughput model."""

import pytest

from repro.calibration.profiles import (
    EPC_USABLE_BYTES,
    GRAPHENE_CALIBRATION,
    NATIVE_CALIBRATION,
    SCONE_CALIBRATION,
    SGXLKL_CALIBRATION,
    interpolate_rate,
)
from repro.errors import FrameworkError
from repro.frameworks import ALL_FRAMEWORKS, create_runtime
from repro.frameworks.native import NativeRuntime
from repro.frameworks.scone import (
    COMMIT_AFTER,
    COMMIT_BEFORE,
    AsyncSyscallQueue,
    SconeRuntime,
)
from repro.frameworks.sgxlkl import SgxLklRuntime
from repro.frameworks.graphene import GrapheneRuntime

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------
def test_interpolation_clamps_and_interpolates():
    points = (10.0, 20.0, 30.0)
    assert interpolate_rate(points, 1) == 10.0
    assert interpolate_rate(points, 8) == 10.0
    assert interpolate_rate(points, 580) == 30.0
    assert interpolate_rate(points, 800) == 30.0
    mid = interpolate_rate(points, 164)  # halfway between 8 and 320
    assert 14.5 <= mid <= 15.5


def test_db_penalty_interpolation():
    cal = SCONE_CALIBRATION
    assert cal.db_penalty_for(78 * MIB) == 1.0
    assert cal.db_penalty_for(50 * MIB) == 1.0  # clamp below
    assert cal.db_penalty_for(105 * MIB) == pytest.approx(0.885)
    assert cal.db_penalty_for(127 * MIB) == pytest.approx(0.78)
    assert cal.db_penalty_for(200 * MIB) == pytest.approx(0.78)  # clamp above
    between = cal.db_penalty_for(91 * MIB)
    assert 0.885 < between < 1.0


def test_rates_switch_on_epc_boundary():
    cal = SCONE_CALIBRATION
    assert cal.rates(78 * MIB) is cal.rates_small_db
    assert cal.rates(EPC_USABLE_BYTES + 1) is cal.rates_large_db


def test_framework_cost_ordering_matches_paper():
    # native < scone < sgx-lkl < graphene in per-request cost.
    costs = [
        NATIVE_CALIBRATION.request_cost_ns,
        SCONE_CALIBRATION.request_cost_ns,
        SGXLKL_CALIBRATION.request_cost_ns,
        GRAPHENE_CALIBRATION.request_cost_ns,
    ]
    assert costs == sorted(costs)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def test_factory_creates_all(sgx_kernel):
    for name in ALL_FRAMEWORKS:
        runtime = create_runtime(name)
        assert runtime.name == name
    with pytest.raises(FrameworkError):
        create_runtime("tdx")


def test_setup_creates_enclave_for_sgx_runtimes(sgx_kernel, driver):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    assert runtime.enclave is not None
    assert driver.active_enclaves == 1


def test_native_needs_no_enclave(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)  # no SGX driver on this host
    assert runtime.enclave is None


def test_sgx_runtime_without_driver_rejected(kernel):
    with pytest.raises(FrameworkError, match="isgx"):
        SconeRuntime().setup(kernel)


def test_double_setup_rejected(sgx_kernel):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    with pytest.raises(FrameworkError):
        runtime.setup(sgx_kernel)


def test_teardown_destroys_enclave_and_process(sgx_kernel, driver):
    runtime = SconeRuntime()
    process = runtime.setup(sgx_kernel)
    runtime.teardown()
    assert driver.active_enclaves == 0
    assert process.exited


def test_load_working_set_commits_epc(sgx_kernel, driver):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    runtime.load_working_set(50 * MIB)
    assert runtime.enclave.committed_pages == 50 * MIB // 4096


def test_load_working_set_native_maps_memory(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    runtime.load_working_set(10 * MIB)
    assert kernel.memory.space(runtime.process.pid).rss_pages == 10 * MIB // 4096


# ---------------------------------------------------------------------------
# Throughput model
# ---------------------------------------------------------------------------
def test_concurrency_factor_monotone_before_knee(sgx_kernel):
    runtime = SconeRuntime()
    factors = [runtime.concurrency_factor(c, 8) for c in (8, 80, 320, 560)]
    assert factors == sorted(factors)
    assert all(0 < f <= 1 for f in factors)


def test_dip_reduces_factor_at_center(sgx_kernel):
    runtime = SgxLklRuntime()
    at_dip = runtime.concurrency_factor(560, 8)
    near = runtime.concurrency_factor(320, 8)
    assert at_dip < near


def test_knee_decay_after_peak():
    runtime = NativeRuntime()
    assert runtime.concurrency_factor(720, 8) < runtime.concurrency_factor(320, 8)


def test_db_penalty_raises_cost():
    runtime = SconeRuntime()
    small = runtime.per_request_cost_ns(320, 78 * MIB)
    large = runtime.per_request_cost_ns(320, 105 * MIB)
    assert large > small


def test_graphene_cost_grows_with_connections():
    runtime = GrapheneRuntime()
    assert runtime.per_request_cost_ns(320, 78 * MIB) > \
        runtime.per_request_cost_ns(8, 78 * MIB)


def test_achievable_rate_network_capped():
    runtime = NativeRuntime()
    uncapped = runtime.achievable_rate(320, 8, 78 * MIB)
    capped = runtime.achievable_rate(320, 8, 78 * MIB, network_cap_rps=1000.0)
    assert capped < uncapped
    assert capped <= 1000.0


def test_monitoring_overhead_factor_ordering():
    runtime = SconeRuntime()
    off = runtime.monitoring_overhead_factor(False, False)
    ebpf = runtime.monitoring_overhead_factor(True, False)
    full = runtime.monitoring_overhead_factor(True, True)
    assert off == 1.0
    assert full < ebpf < 1.0
    # Full TEEMon roughly doubles the eBPF penalty (paper: half/half).
    assert (1 - full) == pytest.approx(2 * (1 - ebpf), rel=0.05)


def test_achievable_rate_validation():
    runtime = NativeRuntime()
    with pytest.raises(FrameworkError):
        runtime.achievable_rate(0, 8, 78 * MIB)


# ---------------------------------------------------------------------------
# Event emission
# ---------------------------------------------------------------------------
def test_emit_slice_fires_kernel_events(sgx_kernel):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    runtime.load_working_set(105 * MIB)
    before_switches = sgx_kernel.scheduler.total_switches
    result = runtime.emit_slice(
        requests=100_000, connections=320, db_bytes=105 * MIB,
        duration_ns=1_000_000_000,
    )
    assert result.syscalls  # dispatched through the async queue
    assert sgx_kernel.syscalls.count_of("futex") > 0
    assert sgx_kernel.memory.user_faults > 0
    assert sgx_kernel.llc.stats.misses > 0
    assert sgx_kernel.scheduler.total_switches > before_switches
    assert result.epc_churn_pages > 0


def test_emit_slice_zero_requests_noop(sgx_kernel):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    result = runtime.emit_slice(0, 8, 78 * MIB, duration_ns=1)
    assert result.syscalls == {}


def test_emit_before_setup_rejected():
    with pytest.raises(FrameworkError):
        SconeRuntime().emit_slice(1, 8, 78 * MIB, duration_ns=1)


# ---------------------------------------------------------------------------
# SCONE specifics
# ---------------------------------------------------------------------------
def test_scone_versions_differ_in_cost():
    before = SconeRuntime(version=COMMIT_BEFORE)
    after = SconeRuntime(version=COMMIT_AFTER)
    assert before.calibration.request_cost_ns > after.calibration.request_cost_ns


def test_scone_unknown_version_rejected():
    with pytest.raises(FrameworkError):
        SconeRuntime(version="deadbeef")


def test_scone_before_fix_clock_gettime_dominates():
    runtime = SconeRuntime(version=COMMIT_BEFORE)
    mix = dict(runtime.calibration.syscalls_per_request)
    assert mix["clock_gettime"] > 10 * mix["read"]


def test_async_queue_mechanism(sgx_kernel):
    process = sgx_kernel.spawn_process("app")
    queue = AsyncSyscallQueue(sgx_kernel, process.pid, batch_size=32)
    queue.enqueue("read", 100)
    assert queue.depth == 100
    cost = queue.drain()
    assert cost > 0
    assert queue.depth == 0
    assert queue.stats.executed == 100
    assert queue.stats.batches == 4  # ceil(100/32)
    assert sgx_kernel.syscalls.count_of("read") == 100
    assert sgx_kernel.syscalls.count_of("futex") == 4  # one wakeup per batch


def test_async_queue_validation(sgx_kernel):
    with pytest.raises(FrameworkError):
        AsyncSyscallQueue(sgx_kernel, 1, capacity=0)


def test_scone_syscalls_reach_kernel_without_ocalls(sgx_kernel):
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    runtime._dispatch_syscalls("read", 50)
    assert sgx_kernel.syscalls.count_of("read") == 50
    assert runtime.enclave.stats.ocalls == 0  # asynchronous: no exits


# ---------------------------------------------------------------------------
# Graphene / SGX-LKL specifics
# ---------------------------------------------------------------------------
def test_graphene_syscalls_are_ocalls(sgx_kernel):
    runtime = GrapheneRuntime()
    runtime.setup(sgx_kernel)
    runtime._dispatch_syscalls("read", 10)
    assert runtime.enclave.stats.ocalls == 10
    assert runtime.ocalls_issued == 10
    assert sgx_kernel.syscalls.count_of("read") == 10


def test_sgxlkl_absorbs_in_enclave_share(sgx_kernel):
    runtime = SgxLklRuntime()
    runtime.setup(sgx_kernel)
    mix = runtime.syscall_mix(10_000)
    # clock_gettime is 90% absorbed by the in-enclave LKL clock source.
    assert mix.get("clock_gettime", 0) < 10_000 * 0.1 * 0.2
    assert runtime.in_enclave_served > 0


def test_sgxlkl_host_calls_batched_exits(sgx_kernel):
    runtime = SgxLklRuntime()
    runtime.setup(sgx_kernel)
    runtime._dispatch_syscalls("read", 80)
    assert sgx_kernel.syscalls.count_of("read") == 80
    assert runtime.enclave.stats.ocalls == 10  # 80 / batch of 8
