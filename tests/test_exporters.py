"""Exporter tests: TME, eBPF exporter, node exporter, cAdvisor."""

import pytest

from repro.errors import DeploymentError
from repro.exporters import (
    CadvisorExporter,
    EbpfExporter,
    EbpfExporterConfig,
    NodeExporter,
    TeeMetricsExporter,
)
from repro.net.http import HttpNetwork
from repro.openmetrics.parser import parse_exposition
from repro.simkernel.clock import seconds


def _scrape(exporter, network):
    exporter.expose(network)
    response = network.get_url(exporter.url)
    assert response.ok
    return {
        (s.name, tuple(sorted(s.labels))): s.value
        for s in parse_exposition(response.body)
    }


def _value(samples, metric, **labels):
    for (sample_name, sample_labels), value in samples.items():
        if sample_name != metric:
            continue
        if all((k, v) in sample_labels for k, v in labels.items()):
            return value
    return None


# ---------------------------------------------------------------------------
# TME
# ---------------------------------------------------------------------------
def test_tme_requires_driver(kernel):
    with pytest.raises(DeploymentError):
        TeeMetricsExporter(kernel)


def test_tme_exports_driver_state(sgx_kernel, driver):
    network = HttpNetwork()
    exporter = TeeMetricsExporter(sgx_kernel)
    process = sgx_kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=1 << 30)
    driver.init_enclave(enclave)
    driver.page_in(enclave, 100)
    samples = _scrape(exporter, network)
    assert _value(samples, "sgx_enclaves_active") == 1
    assert _value(samples, "sgx_enclaves_initialized_total") == 1
    assert _value(samples, "sgx_epc_total_pages") == driver.epc.total_pages
    assert _value(samples, "sgx_epc_free_pages") == driver.epc.total_pages - 100
    assert _value(samples, "sgx_epc_pages_added_total") == 100


def test_tme_values_refresh_between_scrapes(sgx_kernel, driver):
    network = HttpNetwork()
    exporter = TeeMetricsExporter(sgx_kernel)
    exporter.expose(network)
    first = network.get_url(exporter.url).body
    process = sgx_kernel.spawn_process("app")
    enclave = driver.create_enclave(process, heap_bytes=1 << 30)
    driver.init_enclave(enclave)
    driver.page_in(enclave, 50)
    second = network.get_url(exporter.url).body
    assert first != second
    assert "sgx_enclaves_active 1" in second


def test_tme_runs_on_port_9101(sgx_kernel):
    assert TeeMetricsExporter.PORT == 9101


# ---------------------------------------------------------------------------
# eBPF exporter
# ---------------------------------------------------------------------------
def test_ebpf_exporter_counts_syscalls(sgx_kernel):
    network = HttpNetwork()
    exporter = EbpfExporter(sgx_kernel)
    process = sgx_kernel.spawn_process("app")
    sgx_kernel.syscalls.dispatch("clock_gettime", process.pid, count=370_000)
    sgx_kernel.syscalls.dispatch("read", process.pid, count=2_300)
    samples = _scrape(exporter, network)
    assert _value(samples, "ebpf_syscalls_total", name="clock_gettime") == 370_000
    assert _value(samples, "ebpf_syscalls_total", name="read") == 2_300


def test_ebpf_exporter_counts_faults_and_switches(sgx_kernel):
    network = HttpNetwork()
    exporter = EbpfExporter(sgx_kernel)
    process = sgx_kernel.spawn_process("app")
    sgx_kernel.memory.account_faults(process.pid, 77)
    sgx_kernel.memory.account_faults(0, 33, kernel=True)
    sgx_kernel.scheduler.account_switches(process.pid, 55)
    samples = _scrape(exporter, network)
    assert _value(samples, "ebpf_page_faults_user_total", kind="no_page_found") == 77
    assert _value(samples, "ebpf_page_faults_kernel_total") == 33
    assert _value(samples, "ebpf_page_faults_total") == 110
    assert _value(samples, "ebpf_context_switches_total") == 55
    assert _value(
        samples, "ebpf_context_switches_pid_total", pid=str(process.pid)
    ) == 55


def test_ebpf_exporter_counts_cache_metrics(sgx_kernel):
    network = HttpNetwork()
    exporter = EbpfExporter(sgx_kernel)
    sgx_kernel.llc.account(references=1000, misses=60, pid=1)
    sgx_kernel.page_cache.account_activity(pid=1, reads=100, hit_ratio=0.9)
    samples = _scrape(exporter, network)
    assert _value(samples, "ebpf_llc_references_total") == 1000
    assert _value(samples, "ebpf_llc_misses_total") == 60
    assert _value(samples, "ebpf_page_cache_ops_total",
                  op="mark_page_accessed") == 90


def test_ebpf_exporter_group_disable(sgx_kernel):
    config = EbpfExporterConfig(syscalls=False, cache=False)
    exporter = EbpfExporter(sgx_kernel, config=config)
    hooks = {a.hook for a in exporter.runtime.attachments()}
    assert "raw_syscalls:sys_enter" not in hooks
    assert "PERF_COUNT_HW_CACHE_MISSES" not in hooks
    assert "sched:sched_switches" in hooks
    assert config.enabled_groups() == ["context_switches", "page_faults"]


def test_ebpf_exporter_pid_filter(sgx_kernel):
    config = EbpfExporterConfig(pid_filter=42)
    network = HttpNetwork()
    exporter = EbpfExporter(sgx_kernel, config=config)
    sgx_kernel.syscalls.dispatch("read", 42, count=10)
    sgx_kernel.syscalls.dispatch("read", 7, count=99)
    samples = _scrape(exporter, network)
    assert _value(samples, "ebpf_syscalls_total", name="read") == 10


def test_ebpf_exporter_shutdown_detaches(sgx_kernel):
    exporter = EbpfExporter(sgx_kernel)
    assert sgx_kernel.hooks.observer_count("raw_syscalls:sys_enter") == 1
    exporter.shutdown()
    assert sgx_kernel.hooks.observer_count("raw_syscalls:sys_enter") == 0
    assert exporter.process.exited


def test_ebpf_exporter_covers_all_table2_hooks(sgx_kernel):
    exporter = EbpfExporter(sgx_kernel)
    attached = {a.hook for a in exporter.runtime.attachments()}
    from repro.simkernel.hooks import TABLE2_HOOKS

    assert set(TABLE2_HOOKS) <= attached


# ---------------------------------------------------------------------------
# Node exporter
# ---------------------------------------------------------------------------
def test_node_exporter_cpu_and_memory(sgx_kernel):
    network = HttpNetwork()
    exporter = NodeExporter(sgx_kernel)
    process = sgx_kernel.spawn_process("app")
    thread = next(iter(process.threads.values()))
    sgx_kernel.scheduler.account_cpu_time(thread, seconds(3))
    sgx_kernel.scheduler.account_switches(process.pid, 12)
    samples = _scrape(exporter, network)
    assert _value(samples, "node_cpu_seconds_total", cpu="0", mode="busy") == 3.0
    assert _value(samples, "node_context_switches_total") == 12
    assert _value(samples, "node_memory_MemTotal_bytes") > 0
    assert _value(samples, "node_uptime_seconds") == 0.0


def test_node_exporter_page_cache_stats(sgx_kernel):
    network = HttpNetwork()
    exporter = NodeExporter(sgx_kernel)
    sgx_kernel.page_cache.account_activity(pid=1, reads=100, hit_ratio=0.8)
    samples = _scrape(exporter, network)
    assert _value(samples, "node_filesystem_page_cache_hits_total") == 80
    assert _value(samples, "node_filesystem_page_cache_misses_total") == 20


# ---------------------------------------------------------------------------
# cAdvisor
# ---------------------------------------------------------------------------
def test_cadvisor_attributes_by_container(sgx_kernel):
    network = HttpNetwork()
    exporter = CadvisorExporter(sgx_kernel)
    a = sgx_kernel.spawn_process("redis", container_id="redis-1")
    a.rss_bytes = 1024
    sgx_kernel.spawn_process("helper", container_id="redis-1")
    sgx_kernel.spawn_process("bare")  # no container: not reported
    thread = next(iter(a.threads.values()))
    sgx_kernel.scheduler.account_cpu_time(thread, seconds(2))
    samples = _scrape(exporter, network)
    assert _value(samples, "container_cpu_usage_seconds_total",
                  container="redis-1") == 2.0
    assert _value(samples, "container_memory_usage_bytes",
                  container="redis-1") == 1024
    assert _value(samples, "container_threads", container="redis-1") == 2
    # cadvisor itself has a container_id=None process; count excludes bare.
    assert _value(samples, "container_count") == 1


def test_cadvisor_has_highest_cpu_footprint(sgx_kernel):
    # §6.2: cAdvisor is the most CPU-hungry component (~3%).
    others = (TeeMetricsExporter, EbpfExporter, NodeExporter)
    assert all(
        CadvisorExporter.FOOTPRINT.cpu_fraction > cls.FOOTPRINT.cpu_fraction
        for cls in others
    )


# ---------------------------------------------------------------------------
# Shared exporter behaviour
# ---------------------------------------------------------------------------
def test_serving_scrapes_charges_cpu(sgx_kernel):
    network = HttpNetwork()
    exporter = NodeExporter(sgx_kernel)
    exporter.expose(network)
    sgx_kernel.clock.advance(seconds(100))
    network.get_url(exporter.url)
    expected = int(seconds(100) * exporter.FOOTPRINT.cpu_fraction)
    assert exporter.process.cpu_time_ns == expected
    assert exporter.scrapes_served == 1


def test_shutdown_withdraws_only_its_own_route(sgx_kernel):
    network = HttpNetwork()
    first = NodeExporter(sgx_kernel)
    first.expose(network)
    # The route is already gone (torn down at the network level), and a
    # successor has taken the port: shutdown leaves the successor alone.
    network.unregister(sgx_kernel.hostname, first.PORT, first.PATH)
    successor = NodeExporter(sgx_kernel)
    successor.expose(network)
    first.shutdown()
    assert network.get_url(successor.url).ok
    successor.shutdown()
    assert network.get_url(successor.url).status == 404
    assert successor.process.exited


def test_url_before_expose_rejected(sgx_kernel):
    exporter = NodeExporter(sgx_kernel)
    with pytest.raises(RuntimeError):
        exporter.url
