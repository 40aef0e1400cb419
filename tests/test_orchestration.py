"""Container, Kubernetes and Helm tests."""

import pytest

from repro.errors import OrchestrationError
from repro.net.http import HttpNetwork
from repro.orchestration.container import ContainerImage, DockerRuntime
from repro.orchestration.helm import TEEMON_CHART, install_teemon_chart
from repro.orchestration.kubernetes import (
    Cluster,
    Node,
    PodSpec,
    SGX_ENABLED,
    SGX_LABEL,
    Taint,
)
from repro.sgx.driver import SgxDriver
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel


class _Dummy:
    """A containerised component with shutdown tracking."""

    def __init__(self, kernel, container_id):
        self.kernel = kernel
        self.container_id = container_id
        self.stopped = False
        self.url = f"http://{kernel.hostname}:9000/metrics"

    def shutdown(self):
        self.stopped = True


def _image(name="dummy"):
    return ContainerImage(name=name, entrypoint=_Dummy)


def _node(clock, index=0, sgx=False):
    kernel = Kernel(seed=index, hostname=f"worker-{index}", clock=clock)
    if sgx:
        kernel.load_module(SgxDriver())
    return Node(kernel)


# ---------------------------------------------------------------------------
# Docker
# ---------------------------------------------------------------------------
def test_run_and_stop_container(kernel):
    docker = DockerRuntime(kernel)
    container = docker.run(_image(), name="one")
    assert container.running
    assert container.component.container_id == f"{kernel.hostname}/one"
    docker.stop("one")
    assert not container.running
    assert container.component.stopped


def test_duplicate_container_name_rejected(kernel):
    docker = DockerRuntime(kernel)
    docker.run(_image(), name="one")
    with pytest.raises(OrchestrationError):
        docker.run(_image(), name="one")


def test_stop_twice_rejected(kernel):
    docker = DockerRuntime(kernel)
    docker.run(_image(), name="one")
    docker.stop("one")
    with pytest.raises(OrchestrationError):
        docker.stop("one")


def test_remove_requires_stopped(kernel):
    docker = DockerRuntime(kernel)
    docker.run(_image(), name="one")
    with pytest.raises(OrchestrationError):
        docker.remove("one")
    docker.stop("one")
    docker.remove("one")
    with pytest.raises(OrchestrationError):
        docker.get("one")


def test_containers_listing(kernel):
    docker = DockerRuntime(kernel)
    docker.run(_image(), name="a")
    docker.run(_image(), name="b")
    docker.stop("a")
    assert len(docker.containers()) == 2
    assert len(docker.containers(running_only=True)) == 1


# ---------------------------------------------------------------------------
# Kubernetes
# ---------------------------------------------------------------------------
def test_sgx_node_auto_labelled():
    clock = VirtualClock()
    sgx_node = _node(clock, 0, sgx=True)
    plain_node = _node(clock, 1, sgx=False)
    assert sgx_node.labels.get(SGX_LABEL) == SGX_ENABLED
    assert SGX_LABEL not in plain_node.labels


def test_cluster_rejects_foreign_clock():
    cluster = Cluster(VirtualClock())
    stray = Node(Kernel(seed=1, hostname="stray"))  # own clock
    with pytest.raises(OrchestrationError, match="cluster clock"):
        cluster.add_node(stray)


def test_cluster_rejects_duplicate_node_names():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0))
    with pytest.raises(OrchestrationError):
        cluster.add_node(_node(clock, 0))


def test_pod_scheduling_respects_selector():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0, sgx=False))
    spec = PodSpec(name="sgx-thing", image=_image(),
                   node_selector={SGX_LABEL: SGX_ENABLED})
    with pytest.raises(OrchestrationError, match="no node matches"):
        cluster.schedule_pod(spec)
    cluster.add_node(_node(clock, 1, sgx=True))
    pod = cluster.schedule_pod(spec)
    assert pod.node_name == "worker-1"


def test_taints_require_tolerations():
    clock = VirtualClock()
    cluster = Cluster(clock)
    node = _node(clock, 0)
    node.taints.append(Taint("dedicated", "sgx"))
    cluster.add_node(node)
    plain = PodSpec(name="p", image=_image())
    with pytest.raises(OrchestrationError):
        cluster.schedule_pod(plain)
    tolerant = PodSpec(name="t", image=_image(),
                       tolerations=[Taint("dedicated", "sgx")])
    assert cluster.schedule_pod(tolerant).node_name == "worker-0"


def test_least_loaded_placement():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0))
    cluster.add_node(_node(clock, 1))
    spec = PodSpec(name="p", image=_image())
    first = cluster.schedule_pod(spec)
    second = cluster.schedule_pod(spec)
    assert {first.node_name, second.node_name} == {"worker-0", "worker-1"}


def test_daemonset_one_pod_per_node_and_reconcile_on_join():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0))
    cluster.add_node(_node(clock, 1))
    daemonset = cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    assert len(daemonset.pods_by_node) == 2
    cluster.add_node(_node(clock, 2))
    assert len(daemonset.pods_by_node) == 3
    # One pod per node, never more, on repeated reconciles.
    daemonset.reconcile(cluster)
    assert len(cluster.pods()) == 3


def test_daemonset_selector_restricts_nodes():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0, sgx=True))
    cluster.add_node(_node(clock, 1, sgx=False))
    daemonset = cluster.apply_daemonset(
        PodSpec(name="sgx-agent", image=_image(),
                node_selector={SGX_LABEL: SGX_ENABLED})
    )
    assert list(daemonset.pods_by_node) == ["worker-0"]


def test_delete_pod_stops_container_and_frees_daemonset_slot():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0))
    daemonset = cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    pod = cluster.pods()[0]
    cluster.delete_pod(pod.name)
    assert not pod.container.running
    assert daemonset.pods_by_node == {}
    with pytest.raises(OrchestrationError):
        cluster.delete_pod(pod.name)


def test_annotation_driven_discovery():
    clock = VirtualClock()
    cluster = Cluster(clock)
    cluster.add_node(_node(clock, 0))
    cluster.schedule_pod(PodSpec(
        name="exp", image=_image(),
        annotations={"prometheus.io/scrape": "true", "prometheus.io/job": "j"},
    ))
    cluster.schedule_pod(PodSpec(name="quiet", image=_image()))
    targets = cluster.discover_scrape_targets()
    assert len(targets) == 1
    assert targets[0].job == "j"
    assert targets[0].instance == "worker-0"


# ---------------------------------------------------------------------------
# Helm / TEEMon chart
# ---------------------------------------------------------------------------
def _cluster_with_nodes(sgx_nodes=2, plain_nodes=1):
    clock = VirtualClock()
    cluster = Cluster(clock)
    index = 0
    for _ in range(sgx_nodes):
        cluster.add_node(_node(clock, index, sgx=True))
        index += 1
    for _ in range(plain_nodes):
        cluster.add_node(_node(clock, index, sgx=False))
        index += 1
    return clock, cluster


def test_chart_installs_daemonsets_selectively():
    clock, cluster = _cluster_with_nodes(sgx_nodes=2, plain_nodes=1)
    release = install_teemon_chart(cluster, HttpNetwork())
    by_spec = {}
    for pod in cluster.pods():
        by_spec.setdefault(pod.spec.name, []).append(pod.node_name)
    # Generic exporters everywhere; SGX exporter only on SGX nodes.
    assert len(by_spec["teemon-node-exporter"]) == 3
    assert len(by_spec["teemon-ebpf-exporter"]) == 3
    assert len(by_spec["teemon-cadvisor"]) == 3
    assert sorted(by_spec["teemon-sgx-exporter"]) == ["worker-0", "worker-1"]
    release.uninstall()


def test_chart_installs_a_teemon_deployment():
    # The chart's monitor is the one deploy() builds: its own teemon_self
    # target, recording rules, and PMAN feeding the three dashboards.
    from repro.teemon import TeemonDeployment
    from repro.teemon.deploy import SERVICE_FOOTPRINTS

    clock, cluster = _cluster_with_nodes(sgx_nodes=1, plain_nodes=1)
    release = install_teemon_chart(cluster, HttpNetwork())
    deployment = release.deployment
    assert isinstance(deployment, TeemonDeployment)
    assert deployment.exporters == {}
    assert set(deployment.services) == set(SERVICE_FOOTPRINTS)
    assert set(deployment.dashboards) == {"sgx", "docker", "infra"}
    process = cluster.node("worker-0").kernel.spawn_process("app")
    for _ in range(20):
        cluster.node("worker-0").kernel.syscalls.dispatch(
            "read", process.pid, count=10_000
        )
        clock.advance(seconds(5))
    session = deployment.session
    up = {labels.get("job"): value for labels, value in session.query("up")
          if labels.get("instance") == "teemon-monitor"}
    assert up == {"teemon_self": 1.0}
    recorded = session.query('job:syscalls:rate1m{name="read"}')
    assert recorded and recorded[0][1] > 0
    assert deployment.analyzer.analyses_total  # PMAN ran its minutely cycle
    assert set(TEEMON_CHART.default_values) == {
        "prometheus.scrape_interval_s", "prometheus.retention_hours",
        "cadvisor.enabled", "sev.enabled",
    }
    release.uninstall()


def test_chart_scrapes_discovered_targets():
    clock, cluster = _cluster_with_nodes()
    release = install_teemon_chart(cluster, HttpNetwork())
    clock.advance(seconds(20))
    assert release.deployment.tsdb.sample_count() > 0
    assert release.deployment.tsdb.latest("up") is not None
    release.uninstall()


def test_chart_values_validated():
    _clock, cluster = _cluster_with_nodes()
    with pytest.raises(OrchestrationError, match="unknown values"):
        TEEMON_CHART.install(cluster, HttpNetwork(), {"bogus.key": 1})


def test_chart_cadvisor_can_be_disabled():
    _clock, cluster = _cluster_with_nodes()
    release = install_teemon_chart(
        cluster, HttpNetwork(), {"cadvisor.enabled": False}
    )
    assert not any(
        p.spec.name == "teemon-cadvisor" for p in cluster.pods()
    )
    release.uninstall()


def test_uninstall_removes_teemon_pods_only():
    clock, cluster = _cluster_with_nodes(sgx_nodes=1, plain_nodes=0)
    cluster.schedule_pod(PodSpec(name="user-app", image=_image()))
    release = install_teemon_chart(cluster, HttpNetwork())
    release.uninstall()
    remaining = [p.spec.name for p in cluster.pods()]
    assert remaining == ["user-app"]


def test_uninstall_deletes_the_chart_daemonsets():
    # Nodes joining after uninstall get no TEEMon exporters, the node the
    # chart ran on gets none back, and no route stays registered.
    clock, cluster = _cluster_with_nodes(sgx_nodes=1, plain_nodes=0)
    network = HttpNetwork()
    install_teemon_chart(cluster, network).uninstall()
    cluster.add_node(_node(clock, 1, sgx=True))
    cluster.add_node(_node(clock, 2))
    assert cluster.pods() == []
    assert network.endpoints() == []
    # Nothing is left over for a second install to collide with.
    release = install_teemon_chart(cluster, network)
    clock.advance(seconds(10))
    up = release.deployment.session.query("up")
    assert len(up) == len(cluster.pods()) + 1  # + teemon_self
    assert all(value == 1.0 for _, value in up)
    release.uninstall()


def test_deleting_a_user_pod_leaves_daemonset_placement_alone():
    # Only the DaemonSet that owns a deleted pod forgets its node; the
    # chart's exporters on that node are not scheduled a second time.
    clock, cluster = _cluster_with_nodes(sgx_nodes=1, plain_nodes=0)
    release = install_teemon_chart(cluster, HttpNetwork())
    before = sorted(p.spec.name for p in cluster.pods_on("worker-0"))
    user = cluster.schedule_pod(
        PodSpec(name="user-app", image=_image()), node=cluster.node("worker-0")
    )
    cluster.delete_pod(user.name)
    cluster.add_node(_node(clock, 1))
    assert sorted(p.spec.name for p in cluster.pods_on("worker-0")) == before
    release.uninstall()


def test_delete_daemonset_deletes_its_pods_only():
    clock, cluster = _cluster_with_nodes(sgx_nodes=0, plain_nodes=2)
    kept = cluster.apply_daemonset(PodSpec(name="kept", image=_image()))
    gone = cluster.apply_daemonset(PodSpec(name="gone", image=_image()))
    cluster.delete_daemonset(gone)
    assert sorted(p.spec.name for p in cluster.pods()) == ["kept", "kept"]
    with pytest.raises(OrchestrationError, match="no such daemonset"):
        cluster.delete_daemonset(gone)
    cluster.add_node(_node(clock, 2))
    assert len(kept.pods_by_node) == 3
    assert [p.spec.name for p in cluster.pods_on("worker-2")] == ["kept"]


def test_cluster_node_limit():
    cluster = Cluster(VirtualClock())
    cluster.MAX_NODES = 1  # instance-level cap for the test
    clock = cluster.clock
    cluster.add_node(_node(clock, 0))
    with pytest.raises(OrchestrationError, match="limit"):
        cluster.add_node(_node(clock, 1))
