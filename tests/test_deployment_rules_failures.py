"""Deployment recording rules and failure-injection tests."""

import pytest

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.errors import EpcExhaustedError, SgxError
from repro.frameworks.scone import SconeRuntime
from repro.sgx.driver import SgxDriver
from repro.sgx.epc import EPC_PAGE_SIZE, EpcRegion
from repro.simkernel.clock import seconds
from repro.simkernel.kernel import Kernel
from repro.teemon import TeemonConfig, deploy

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# Recording rules inside a deployment
# ---------------------------------------------------------------------------
def test_deployment_records_precomputed_series(sgx_kernel):
    deployment = deploy(sgx_kernel)
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320)
    bench.prepopulate(runtime, server, value_size=64)
    bench.run(runtime, server, duration_s=90.0, ebpf_active=True)
    recorded = deployment.tsdb.latest("job:syscalls:rate1m", name="futex")
    assert recorded is not None and recorded.value > 0
    evictions = deployment.tsdb.latest("job:epc_evictions:rate1m")
    assert evictions is not None and evictions.value > 0
    deployment.shutdown()


def test_recording_rules_can_be_disabled(sgx_kernel):
    deployment = deploy(
        sgx_kernel, TeemonConfig(enable_recording_rules=False)
    )
    sgx_kernel.clock.advance(seconds(120))
    assert deployment.tsdb.latest("job:syscalls:rate1m") is None
    deployment.shutdown()


def test_recorded_series_queryable_like_any_other(sgx_kernel):
    deployment = deploy(sgx_kernel)
    process = sgx_kernel.spawn_process("redis-server")
    for _ in range(30):
        sgx_kernel.syscalls.dispatch("read", process.pid, count=50_000)
        sgx_kernel.clock.advance(seconds(5))
    vector = deployment.session.query('job:syscalls:rate1m{name="read"}')
    assert vector and vector[0][1] == pytest.approx(10_000, rel=0.1)
    deployment.shutdown()


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------
def test_epc_exhaustion_with_many_enclaves(sgx_kernel, driver):
    """Enclave creation succeeds but paging fails once the EPC is full of
    other tenants' resident pages and nothing is evictable."""
    owners = [sgx_kernel.spawn_process(f"tenant-{i}") for i in range(3)]
    enclaves = []
    for owner in owners:
        enclave = driver.create_enclave(owner, heap_bytes=1 << 30)
        driver.init_enclave(enclave)
        enclaves.append(enclave)
    # Fill the EPC via the first two tenants.
    driver.page_in(enclaves[0], driver.epc.total_pages // 2)
    driver.page_in(enclaves[1], driver.epc.free_pages - 100)
    # The third can still page in: ksgxswapd evicts from the others.
    driver.page_in(enclaves[2], 5_000)
    assert enclaves[2].resident_pages == 5_000
    assert driver.epc.counters.pages_evicted > 0


def test_epc_cannot_overcommit_raw_region():
    epc = EpcRegion(reserved_bytes=10 * EPC_PAGE_SIZE * 2,
                    usable_bytes=10 * EPC_PAGE_SIZE)
    epc.register_enclave(1)
    epc.add_pages(1, 10)
    with pytest.raises(EpcExhaustedError):
        epc.add_pages(1, 1)


def test_driver_unload_while_monitored(sgx_kernel):
    """Unloading the SGX driver mid-run: the TME's reads fail, scrapes
    mark it down, everything else keeps working."""
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(20))
    assert deployment.tsdb.latest("up", job="sgx").value == 1.0
    # Driver goes away: every module parameter the TME reads fails as a
    # missing file does.
    from repro.errors import SimulationError
    from repro.exporters.tme import TeeMetricsExporter

    def gone():
        raise SimulationError("no such file")

    for _family, param, _help, _counter in TeeMetricsExporter.PARAMS:
        sgx_kernel.vfs.publish(f"{TeeMetricsExporter.PARAMS_DIR}/{param}", gone)
    sgx_kernel.clock.advance(seconds(20))
    assert deployment.tsdb.latest("up", job="sgx").value == 0.0
    assert deployment.tsdb.latest("up", job="node").value == 1.0
    deployment.shutdown()


def test_monitoring_survives_workload_crash(sgx_kernel):
    """The monitored app exits mid-run; TEEMon keeps scraping and the
    app's counters simply stop advancing."""
    deployment = deploy(sgx_kernel)
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=64)
    bench.prepopulate(runtime, server, value_size=32)
    bench.run(runtime, server, duration_s=30.0, ebpf_active=True)
    futex_before = deployment.session.query('ebpf_syscalls_total{name="futex"}')[0][1]
    runtime.teardown()  # crash/exit
    sgx_kernel.clock.advance(seconds(60))
    futex_after = deployment.session.query('ebpf_syscalls_total{name="futex"}')[0][1]
    assert futex_after == futex_before
    assert deployment.tsdb.latest("up", job="ebpf").value == 1.0
    deployment.shutdown()


def test_sev_and_sgx_coexist_on_one_host():
    """Both TEE drivers loaded; both exporters scraped by one PMAG."""
    from repro.net import HttpNetwork
    from repro.pmag import ScrapeManager, ScrapeTarget, Tsdb
    from repro.pmag.query import QueryEngine
    from repro.sev import QemuSevExtension, SevDriver, SevMetricsExporter
    from repro.exporters import TeeMetricsExporter

    kernel = Kernel(seed=88, hostname="hybrid")
    kernel.load_module(SgxDriver())
    kernel.load_module(SevDriver())
    qemu = QemuSevExtension(kernel)
    qemu.launch_vm("guest", memory_bytes=128 * MIB)
    driver = kernel.module("isgx")
    owner = kernel.spawn_process("sgx-app")
    enclave = driver.create_enclave(owner, heap_bytes=1 << 28)
    driver.init_enclave(enclave)

    network = HttpNetwork()
    sgx_exporter = TeeMetricsExporter(kernel)
    sgx_exporter.expose(network)
    sev_exporter = SevMetricsExporter(kernel, hypervisor=qemu)
    sev_exporter.expose(network)
    tsdb = Tsdb()
    manager = ScrapeManager(kernel.clock, network, tsdb)
    manager.add_target(ScrapeTarget(job="sgx", instance="hybrid",
                                    url=sgx_exporter.url))
    manager.add_target(ScrapeTarget(job="sev", instance="hybrid",
                                    url=sev_exporter.url))
    manager.start()
    kernel.clock.advance(seconds(15))
    engine = QueryEngine(tsdb)
    now = kernel.clock.now_ns
    assert engine.instant("sgx_enclaves_active", now)[0][1] == 1.0
    assert engine.instant("sev_guests_active", now)[0][1] == 1.0
    manager.stop()
