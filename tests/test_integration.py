"""Integration tests: full pipelines across modules.

These exercise the paths the paper's deployment uses: workload -> kernel
events -> eBPF maps -> OpenMetrics -> scrape -> TSDB -> query -> analysis
-> dashboard, on one host and across a cluster.
"""

import pytest

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.frameworks import create_runtime
from repro.frameworks.scone import SconeRuntime
from repro.net.http import HttpNetwork
from repro.orchestration import Cluster, Node, install_teemon_chart
from repro.sgx.driver import SgxDriver
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.teemon import TeemonConfig, deploy


def test_workload_events_round_trip_to_queries(sgx_kernel):
    """The full single-host pipeline, asserting exact counter transport."""
    deployment = deploy(sgx_kernel)
    runtime = SconeRuntime()
    runtime.setup(sgx_kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320)
    bench.prepopulate(runtime, server, value_size=64)
    result = bench.run(runtime, server, duration_s=60.0,
                       ebpf_active=True, full_monitoring=True)

    session = deployment.session
    # 1. Syscall counters in the TSDB match what the kernel dispatched.
    vector = session.query('ebpf_syscalls_total{name="futex"}')
    assert vector
    assert vector[0][1] == sgx_kernel.syscalls.count_of("futex")

    # 2. EPC counters flow from the driver through the TME.
    driver = sgx_kernel.module("isgx")
    evicted = session.query("sgx_epc_pages_evicted_total")
    assert evicted[0][1] == driver.epc.counters.pages_evicted

    # 3. cAdvisor sees the Redis container.
    containers = session.query('container_memory_usage_bytes{container="redis"}')
    assert containers and containers[0][1] >= server.db_bytes

    # 4. The SGX dashboard renders with live data.
    session.set_process_filter(runtime.process.pid)
    text = session.render("sgx")
    assert "futex" in text

    # 5. EPC pressure raised an alert (105 MB working set > 94 MB EPC).
    names = {a.name() for a in session.active_alerts()}
    assert "EpcEvictionPressure" in names or "EpcNearlyFull" in names
    deployment.shutdown()


def test_monitoring_off_vs_on_overhead_envelope(sgx_kernel):
    """§6.3's claim end-to-end: overhead within 5-17%, eBPF about half."""
    def run(ebpf, full):
        runtime = SconeRuntime()
        runtime.setup(sgx_kernel)
        server = RedisLikeServer()
        bench = MemtierBenchmark(connections=320)
        bench.prepopulate(runtime, server, value_size=32)
        outcome = bench.run(runtime, server, duration_s=5.0,
                            ebpf_active=ebpf, full_monitoring=full)
        runtime.teardown()
        return outcome.throughput_rps

    baseline = run(False, False)
    ebpf_only = run(True, False)
    full = run(True, True)
    total_drop = 1 - full / baseline
    ebpf_drop = 1 - ebpf_only / baseline
    assert 0.04 < total_drop < 0.17
    assert ebpf_drop == pytest.approx(total_drop / 2, rel=0.25)


def test_cluster_pipeline_with_node_churn():
    """Cluster install, workload, node join: discovery follows topology."""
    clock = VirtualClock()
    cluster = Cluster(clock)
    network = HttpNetwork()
    for index in range(2):
        kernel = Kernel(seed=50 + index, hostname=f"w{index}", clock=clock)
        kernel.load_module(SgxDriver())
        cluster.add_node(Node(kernel))
    release = install_teemon_chart(cluster, network)
    targets_before = len(release.deployment.scrape_manager.current_targets())

    # Run an enclave workload on w0.
    node = cluster.node("w0")
    runtime = SconeRuntime()
    runtime.setup(node.kernel, container_id="redis-0")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=64)
    bench.prepopulate(runtime, server, value_size=64)
    bench.run(runtime, server, duration_s=30.0)

    per_instance = release.deployment.engine.instant(
        "sum by (instance) (ebpf_syscalls_total)", clock.now_ns
    )
    by_instance = {labels.get("instance"): value for labels, value in per_instance}
    assert by_instance.get("w0", 0) > 0
    assert by_instance.get("w1", 0) == 0  # idle node

    # A third node joins; DaemonSets reconcile and scraping follows.
    joiner = Kernel(seed=99, hostname="w2", clock=clock)
    cluster.add_node(Node(joiner))
    clock.advance(seconds(10))
    assert len(release.deployment.scrape_manager.current_targets()) > targets_before
    up = release.deployment.engine.instant('up{instance="w2"}', clock.now_ns)
    assert up and all(value == 1.0 for _, value in up)
    release.uninstall()


def test_all_frameworks_run_under_one_teemon_unchanged(sgx_kernel):
    """§6.5's generality claim: same deployment monitors every runtime."""
    deployment = deploy(sgx_kernel, TeemonConfig())
    for name in ("native", "scone", "sgx-lkl", "graphene-sgx"):
        runtime = create_runtime(name)
        runtime.setup(sgx_kernel)
        server = RedisLikeServer()
        bench = MemtierBenchmark(connections=64)
        bench.prepopulate(runtime, server, value_size=32)
        outcome = bench.run(runtime, server, duration_s=5.0, ebpf_active=True)
        assert outcome.requests_total > 0
        runtime.teardown()
    # All four workloads contributed syscall traffic to the same TSDB.
    total = deployment.session.query("ebpf_syscalls_total")
    assert total
    deployment.shutdown()


def test_scrape_survives_exporter_failure(sgx_kernel):
    """A dying exporter flips its `up` series; others keep flowing."""
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(20))
    node_exporter = deployment.exporters["node"]
    deployment.network.unregister(
        sgx_kernel.hostname, node_exporter.PORT, node_exporter.PATH
    )
    # Long enough for scrapes to record `up == 0` and for the next PMAN
    # analysis cycle (every 60 s) to evaluate the TargetUnreachable rule.
    sgx_kernel.clock.advance(seconds(130))
    session = deployment.session
    ups = {labels.get("job"): value for labels, value in session.query("up")}
    assert ups["node"] == 0.0
    assert ups["sgx"] == 1.0
    # TargetUnreachable alert raised by the default rules.
    assert any(a.name() == "TargetUnreachable"
               for a in session.active_alerts())
    deployment.shutdown()


def test_determinism_same_seed_same_metrics():
    """Identical seeds produce bit-identical monitored outcomes."""
    def run():
        kernel = Kernel(seed=777, hostname="det")
        kernel.load_module(SgxDriver())
        deployment = deploy(kernel)
        runtime = SconeRuntime()
        runtime.setup(kernel)
        server = RedisLikeServer()
        bench = MemtierBenchmark(connections=160)
        bench.prepopulate(runtime, server, value_size=64)
        outcome = bench.run(runtime, server, duration_s=20.0, ebpf_active=True)
        rates = deployment.session.syscall_rates()
        counters = kernel.syscalls.counts_snapshot()
        deployment.shutdown()
        return outcome.requests_total, rates, counters

    assert run() == run()
