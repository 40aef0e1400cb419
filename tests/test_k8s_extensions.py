"""Tests: Kubernetes Deployments + node failure."""

import pytest

from repro.errors import OrchestrationError
from repro.orchestration.container import ContainerImage
from repro.orchestration.kubernetes import Cluster, Deployment, Node, PodSpec
from repro.simkernel.clock import VirtualClock
from repro.simkernel.kernel import Kernel


class _App:
    def __init__(self, kernel, container_id):
        self.container_id = container_id

    def shutdown(self):
        pass


def _image():
    return ContainerImage(name="app", entrypoint=_App)


def _cluster(nodes=3):
    clock = VirtualClock()
    cluster = Cluster(clock)
    for index in range(nodes):
        cluster.add_node(Node(Kernel(seed=index, hostname=f"n{index}", clock=clock)))
    return cluster


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------
def test_deployment_creates_replicas_spread():
    cluster = _cluster(3)
    deployment = cluster.apply_deployment(PodSpec(name="web", image=_image()), 3)
    assert len(deployment.pods) == 3
    assert len({p.node_name for p in deployment.pods}) == 3  # least-loaded


def test_deployment_scale_up_and_down():
    cluster = _cluster(2)
    deployment = cluster.apply_deployment(PodSpec(name="web", image=_image()), 2)
    deployment.scale(4)
    cluster.reconcile_deployments()
    assert len(deployment.pods) == 4
    deployment.scale(1)
    cluster.reconcile_deployments()
    assert len(deployment.pods) == 1
    assert len(cluster.pods()) == 1


def test_deployment_negative_replicas_rejected():
    with pytest.raises(OrchestrationError):
        Deployment(PodSpec(name="x", image=_image()), -1)


def test_node_failure_reschedules_deployment_pods():
    cluster = _cluster(3)
    deployment = cluster.apply_deployment(PodSpec(name="web", image=_image()), 3)
    victim_node = deployment.pods[0].node_name
    lost = cluster.fail_node(victim_node)
    assert lost  # the node had at least one pod
    assert len(deployment.pods) == 3  # replaced immediately
    assert all(p.node_name != victim_node for p in deployment.pods)
    assert len(cluster.nodes()) == 2


def test_node_failure_does_not_move_daemonset_pods():
    cluster = _cluster(2)
    daemonset = cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    cluster.fail_node("n0")
    assert list(daemonset.pods_by_node) == ["n1"]


def test_deployment_degrades_gracefully_without_nodes():
    cluster = _cluster(1)
    deployment = cluster.apply_deployment(PodSpec(name="web", image=_image()), 2)
    cluster.fail_node("n0")
    assert deployment.pods == []  # degraded, not crashed
    # A new node joins: the Deployment recovers automatically.
    cluster.add_node(Node(Kernel(seed=9, hostname="n9", clock=cluster.clock)))
    assert len(deployment.pods) == 2


def test_failed_node_pods_marked_terminated():
    cluster = _cluster(1)
    cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    lost = cluster.fail_node("n0")
    assert all(p.phase == "Terminated" for p in lost)
    assert all(not p.container.running for p in lost)
    assert cluster.pods() == []
