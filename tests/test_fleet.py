"""Fleet scaling: exporters, DaemonSet discovery, churn."""

import pytest

from repro.errors import OrchestrationError
from repro.faults import FaultPlan
from repro.net.http import HttpNetwork
from repro.orchestration.fleet import (
    FLEET_EXPORTER_PORT,
    FleetChurner,
    FleetExporter,
    NodeFleet,
)
from repro.orchestration.kubernetes import Cluster
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.teemon import TeemonConfig, deploy


def _fleet(seed=7, plan=None):
    clock = VirtualClock()
    network = HttpNetwork()
    cluster = Cluster(clock=clock)
    fleet = NodeFleet(cluster, network, DeterministicRng(seed), plan=plan)
    return clock, network, cluster, fleet


# ---------------------------------------------------------------------------
# FleetExporter
# ---------------------------------------------------------------------------
def test_exporter_exposition_is_pure_function_of_time():
    clock = VirtualClock()
    network = HttpNetwork()
    kernel = Kernel(seed=3, hostname="node-9", clock=clock)
    exporter = FleetExporter(kernel, network)
    clock.advance(seconds(10))
    first = network.get_url(exporter.url).body
    second = network.get_url(exporter.url).body
    assert first == second  # no internal state mutates between reads
    assert 'fleet_exporter_build_info{version="v1"} 1' in first
    assert "sgx_epc_pages_evicted_total 80.000" in first  # 8/s * 10s
    clock.advance(seconds(10))
    assert "sgx_epc_pages_evicted_total 160.000" in network.get_url(
        exporter.url).body


def test_exporter_epc_thrash_window_adds_evictions():
    clock = VirtualClock()
    network = HttpNetwork()
    kernel = Kernel(seed=3, hostname="node-0", clock=clock)
    exporter = FleetExporter(kernel, network)
    exporter.inject_epc_thrash(seconds(5), seconds(10), pages_per_s=1000.0)
    with pytest.raises(OrchestrationError):
        exporter.inject_epc_thrash(seconds(5), seconds(5), 10.0)
    clock.advance(seconds(20))
    body = network.get_url(exporter.url).body
    # 8/s * 20s baseline + 1000/s over the 5s window.
    assert "sgx_epc_pages_evicted_total 5160.000" in body


def test_exporter_withdraw_removes_route():
    clock = VirtualClock()
    network = HttpNetwork()
    exporter = FleetExporter(Kernel(seed=1, hostname="n0", clock=clock),
                             network)
    assert network.get_url(exporter.url).ok
    exporter.withdraw()
    assert network.get_url(exporter.url).status == 404
    exporter.withdraw()  # idempotent


def test_graceful_pod_stop_withdraws_the_route():
    _clock, network, cluster, fleet = _fleet()
    fleet.add_nodes(1)
    url = fleet.exporter("node-0").url
    assert network.get_url(url).ok
    (pod,) = cluster.pods_on("node-0")
    cluster.delete_pod(pod.name)
    assert network.get_url(url).status == 404


# ---------------------------------------------------------------------------
# NodeFleet topology
# ---------------------------------------------------------------------------
def test_daemonset_pods_every_joined_node():
    _clock, network, cluster, fleet = _fleet()
    names = fleet.add_nodes(5)
    assert names == [f"node-{i}" for i in range(5)]
    targets = cluster.discover_scrape_targets()
    assert len(targets) == 5
    for target in targets:
        assert network.get_url(target.url).ok
    assert fleet.stats()["nodes"] == 5


def test_remove_node_withdraws_route_and_journals():
    clock = VirtualClock()
    network = HttpNetwork()
    cluster = Cluster(clock=clock)
    rng = DeterministicRng(7)
    plan = FaultPlan(clock, rng.fork("plan"))
    fleet = NodeFleet(cluster, network, rng, plan=plan)
    fleet.add_nodes(3)
    url = fleet.exporter("node-1").url
    fleet.remove_node("node-1")
    assert network.get_url(url).status == 404
    assert fleet.node_names() == ["node-0", "node-2"]
    assert len(cluster.discover_scrape_targets()) == 2
    with pytest.raises(OrchestrationError):
        fleet.exporter("node-1")
    journal = plan.journal_text()
    assert "FLEET node-1 node-leave" in journal


def test_reboot_rejoins_same_node_with_same_seed():
    clock, network, _cluster, fleet = _fleet()
    fleet.add_nodes(2)
    probe_before = fleet.exporter(
        "node-1").kernel.rng.fork("probe").getrandbits(32)
    fleet.reboot_node("node-1", downtime_s=10.0)
    with pytest.raises(OrchestrationError):
        fleet.reboot_node("node-1")  # already mid-reboot
    assert fleet.node_names() == ["node-0"]
    clock.advance(seconds(11))
    assert fleet.node_names() == ["node-0", "node-1"]
    # The rejoined node derived the identical kernel seed from its name,
    # so its rng streams replay exactly.
    probe_after = fleet.exporter(
        "node-1").kernel.rng.fork("probe").getrandbits(32)
    assert probe_after == probe_before
    assert fleet.stats()["reboots"] == 1
    assert fleet.stats()["rebooting"] == 0


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------
def test_churner_respects_size_band_and_is_deterministic():
    def run(seed):
        clock = VirtualClock()
        network = HttpNetwork()
        cluster = Cluster(clock=clock)
        rng = DeterministicRng(seed)
        plan = FaultPlan(clock, rng.fork("plan"))
        fleet = NodeFleet(cluster, network, rng, plan=plan)
        fleet.add_nodes(6)
        churner = FleetChurner(fleet, interval_s=5.0, min_nodes=4,
                               max_nodes=8, reboot_downtime_s=4.0)
        churner.start()
        sizes = []
        for _ in range(40):
            clock.advance(seconds(5))
            sizes.append(len(fleet.node_names()))
        churner.stop()
        clock.advance(seconds(10))  # pending reboots rejoin
        return sizes, churner.events, plan.journal_text()

    sizes, events, journal = run(11)
    assert events == 40
    assert all(size <= 8 for size in sizes)
    # The floor can transiently dip while a reboot is down, but the live
    # population never collapses.
    assert min(sizes) >= 3
    # Same seed, same history — byte for byte.
    assert run(11) == (sizes, events, journal)
    assert run(12)[2] != journal


def test_churned_fleet_keeps_monitor_view_consistent():
    clock = VirtualClock()
    network = HttpNetwork()
    cluster = Cluster(clock=clock)
    rng = DeterministicRng(5)
    fleet = NodeFleet(cluster, network, rng)
    fleet.add_nodes(8)

    kernel = Kernel(seed=1, hostname="mon-0", clock=clock)
    deployment = deploy(kernel, TeemonConfig(
        enable_exporters=False, enable_recording_rules=False,
        enable_anomaly_detection=False, enable_alerting=False,
    ), network=network)
    deployment.add_discovery(fleet.discovery())

    churner = FleetChurner(fleet, interval_s=10.0, min_nodes=4, max_nodes=12)
    churner.start()
    clock.advance(seconds(120))
    churner.stop()
    clock.advance(seconds(30))

    live = set(fleet.node_names())
    # No phantom targets: every up==1 instance is a live node (or the
    # monitor's self target); departed nodes got staleness markers.
    for labels, value in deployment.session.query("up"):
        instance = labels.get("instance")
        if value >= 1.0 and instance != "mon-0":
            assert instance in live
    assert deployment.scrape_manager.targets_removed > 0
    stats = deployment.scrape_manager.self_stats()
    assert stats["targets_removed"] > 0
    deployment.stop()
