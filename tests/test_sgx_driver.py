"""SGX driver, enclave and swapd tests."""

import pytest

from repro.errors import EnclaveError, SgxError
from repro.sgx.driver import PARAMS_DIR, SgxDriver
from repro.sgx.enclave import EnclaveState
from repro.sgx.epc import EPC_PAGE_SIZE

MIB = 1024 * 1024


def _enclave(sgx_kernel, driver, heap=1 << 30):
    process = sgx_kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=heap)
    driver.init_enclave(enclave)
    return enclave


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def test_create_init_remove_lifecycle(sgx_kernel, driver):
    process = sgx_kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=1 << 20)
    assert enclave.state is EnclaveState.CREATED
    assert driver.active_enclaves == 1
    driver.init_enclave(enclave)
    assert enclave.state is EnclaveState.INITIALIZED
    assert driver.enclaves_initialized == 1
    driver.remove_enclave(enclave)
    assert enclave.state is EnclaveState.REMOVED
    assert driver.enclaves_removed == 1
    assert driver.active_enclaves == 0


def test_init_twice_rejected(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    with pytest.raises(EnclaveError):
        driver.init_enclave(enclave)


def test_remove_twice_rejected(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    driver.remove_enclave(enclave)
    with pytest.raises(EnclaveError):
        driver.remove_enclave(enclave)


def test_transitions_require_initialized(sgx_kernel, driver):
    process = sgx_kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=1 << 20)
    with pytest.raises(EnclaveError):
        enclave.ecall()


def test_transition_costs_and_counters(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    cost = enclave.ecall(10)
    assert cost == 10 * enclave.costs.ecall_ns
    assert enclave.stats.ecalls == 10
    assert enclave.ocall(5) == 5 * enclave.costs.ocall_ns
    assert enclave.aex(2) == 2 * enclave.costs.aex_ns


def test_zero_heap_rejected(sgx_kernel, driver):
    process = sgx_kernel.spawn_process("app")
    with pytest.raises(EnclaveError):
        driver.create_enclave(process, heap_bytes=0)


def test_driver_hooks_fired_on_lifecycle(sgx_kernel, driver):
    _enclave(sgx_kernel, driver)
    assert sgx_kernel.hooks.fire_count("isgx:sgx_encl_create") == 1
    assert sgx_kernel.hooks.fire_count("isgx:sgx_encl_init") == 1


# ---------------------------------------------------------------------------
# Module parameters (the TME read path)
# ---------------------------------------------------------------------------
def test_module_params_published(sgx_kernel, driver):
    for expected in ("sgx_nr_free_pages", "sgx_nr_enclaves", "sgx_nr_evicted"):
        assert sgx_kernel.vfs.exists(f"{PARAMS_DIR}/{expected}")


def test_params_reflect_live_state(sgx_kernel, driver):
    read = lambda p: int(sgx_kernel.vfs.read(f"{PARAMS_DIR}/{p}"))
    total = read("sgx_nr_total_epc_pages")
    assert read("sgx_nr_free_pages") == total
    enclave = _enclave(sgx_kernel, driver)
    driver.page_in(enclave, 100)
    assert read("sgx_nr_free_pages") == total - 100
    assert read("sgx_nr_enclaves") == 1
    assert read("sgx_nr_added_pages") == 100


def test_unload_removes_swapd_and_enclaves(sgx_kernel, driver):
    _enclave(sgx_kernel, driver)
    swapd_pid = driver.swapd.process.pid
    sgx_kernel.unload_module("isgx")
    assert driver.swapd is None
    assert not any(p.pid == swapd_pid for p in sgx_kernel.processes())


# ---------------------------------------------------------------------------
# Paging
# ---------------------------------------------------------------------------
def test_page_in_commits_pages(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    cost = driver.page_in(enclave, 64)
    assert cost > 0
    assert enclave.resident_pages == 64


def test_page_in_beyond_epc_rejected(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    with pytest.raises(SgxError):
        driver.page_in(enclave, driver.epc.total_pages + 1)


def test_page_in_wakes_swapd_under_pressure(sgx_kernel, driver):
    a = _enclave(sgx_kernel, driver)
    driver.page_in(a, driver.epc.total_pages - 10)
    b_process = sgx_kernel.spawn_process("b")
    b = driver.create_enclave(b_process, heap_bytes=1 << 30)
    driver.init_enclave(b)
    driver.page_in(b, 100)  # must evict from a
    assert driver.swapd.stats.wakeups >= 1
    assert driver.epc.counters.pages_evicted > 0
    assert b.resident_pages == 100


def test_fault_working_set_fits_epc_no_churn(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    outcome = driver.fault_working_set(enclave, 50 * MIB, accesses=10_000)
    assert outcome.pages_evicted == 0
    assert outcome.user_faults == 0
    assert enclave.resident_pages == 50 * MIB // EPC_PAGE_SIZE


def test_fault_working_set_beyond_epc_commits_overflow_swapped(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    driver.fault_working_set(enclave, 105 * MIB, accesses=0)
    committed = enclave.committed_pages
    assert committed == 105 * MIB // EPC_PAGE_SIZE
    assert enclave.swapped_pages > 0
    assert driver.epc.counters.pages_evicted > 0


def test_fault_working_set_steady_state_produces_faults(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    driver.fault_working_set(enclave, 105 * MIB, accesses=0)
    outcome = driver.fault_working_set(
        enclave, 105 * MIB, accesses=1_000_000, locality=0.999
    )
    assert outcome.user_faults > 0
    assert outcome.aex_count == outcome.user_faults
    assert sgx_kernel.memory.user_faults >= outcome.user_faults


def test_churn_pages_cycles_counters_without_changing_residency(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    driver.page_in(enclave, 100)
    resident_before = enclave.resident_pages
    evicted_before = driver.epc.counters.pages_evicted
    cost = driver.churn_pages(enclave, 1_000)  # 10x the resident set
    assert cost > 0
    assert enclave.resident_pages == resident_before
    assert driver.epc.counters.pages_evicted == evicted_before + 1_000
    assert driver.epc.counters.pages_reclaimed >= 1_000


def test_churn_on_empty_enclave_is_noop(sgx_kernel, driver):
    enclave = _enclave(sgx_kernel, driver)
    assert driver.churn_pages(enclave, 100) == 0


def test_swapd_visible_in_host_processes(sgx_kernel, driver):
    assert any(p.name == "ksgxswapd" for p in sgx_kernel.processes())
