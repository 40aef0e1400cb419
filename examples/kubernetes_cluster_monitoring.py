#!/usr/bin/env python3
"""Cluster-scale TEEMon: Helm install, DaemonSets, service discovery.

Builds a heterogeneous Kubernetes-style cluster — three SGX worker nodes
and one plain node — installs the TEEMon chart (exporter DaemonSets, with
the SGX exporter landing only on SGX-labelled nodes), runs enclave
workloads on two nodes, and shows the aggregation layer following a
topology change when a new node joins mid-run.

Run:  python examples/kubernetes_cluster_monitoring.py
"""

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.frameworks import SconeRuntime
from repro.net import HttpNetwork
from repro.orchestration import Cluster, Node, install_teemon_chart
from repro.pmv.render import render_dashboard
from repro.sgx import SgxDriver
from repro.simkernel import Kernel
from repro.simkernel.clock import VirtualClock, seconds


def make_node(clock: VirtualClock, index: int, sgx: bool) -> Node:
    kernel = Kernel(seed=100 + index, hostname=f"worker-{index}", clock=clock)
    if sgx:
        kernel.load_module(SgxDriver())
    return Node(kernel)


def main() -> None:
    clock = VirtualClock()
    cluster = Cluster(clock)
    network = HttpNetwork()

    for index in range(4):
        cluster.add_node(make_node(clock, index, sgx=index < 3))

    release = install_teemon_chart(cluster, network)
    print(f"nodes: {[n.name for n in cluster.nodes()]}")
    print(f"pods after install: {len(cluster.pods())}")
    print(f"scrape targets discovered: {len(release.deployment.scrape_manager.current_targets())}")
    sgx_pods = [p for p in cluster.pods() if p.spec.name == "teemon-sgx-exporter"]
    print(f"sgx-exporter pods (SGX nodes only): "
          f"{sorted(p.node_name for p in sgx_pods)}\n")

    # Enclave workloads on two of the SGX nodes.
    runs = []
    for index in (0, 1):
        node = cluster.node(f"worker-{index}")
        runtime = SconeRuntime()
        runtime.setup(node.kernel, container_id=f"redis-{index}")
        server = RedisLikeServer()
        bench = MemtierBenchmark(connections=160)
        bench.prepopulate(runtime, server, value_size=64)
        runs.append((bench, runtime, server))

    # Interleave: one second of each workload at a time, on the shared clock.
    for _ in range(60):
        for bench, runtime, server in runs:
            rate = runtime.achievable_rate(
                bench.connections, bench.pipeline, server.db_bytes,
                network_cap_rps=bench.network_cap_rps(server),
            )
            runtime.emit_slice(int(rate), bench.connections, server.db_bytes,
                               duration_ns=1_000_000_000)
        clock.advance(seconds(1))

    print(f"TSDB series: {release.deployment.tsdb.series_count()}, "
          f"samples: {release.deployment.tsdb.sample_count():,}")
    per_node = release.deployment.engine.instant(
        "sum by (instance) (rate(ebpf_syscalls_total[1m]))", clock.now_ns
    )
    print("syscall rates per node:")
    for labels, value in per_node:
        print(f"  {labels.get('instance'):<10} {value:>12,.0f}/s")

    # A node joins mid-run: DaemonSets reconcile, discovery follows.
    cluster.add_node(make_node(clock, 4, sgx=True))
    clock.advance(seconds(10))
    print(f"\nafter worker-4 joined: pods={len(cluster.pods())}, "
          f"targets={len(release.deployment.scrape_manager.current_targets())}")

    print("\n" + render_dashboard(
        release.deployment.dashboards["infra"], release.deployment.engine, clock.now_ns, width=76
    ))
    release.uninstall()


if __name__ == "__main__":
    main()
