"""Tests: Kubernetes node failure."""

from repro.orchestration.container import ContainerImage
from repro.orchestration.kubernetes import Cluster, Node, PodSpec
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


def test_node_failure_does_not_move_daemonset_pods():
    cluster = _cluster(2)
    daemonset = cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    cluster.fail_node("n0")
    assert list(daemonset.pods_by_node) == ["n1"]


def test_failed_node_pods_marked_terminated():
    cluster = _cluster(1)
    cluster.apply_daemonset(PodSpec(name="agent", image=_image()))
    lost = cluster.fail_node("n0")
    assert lost and cluster.nodes() == []
    assert all(p.phase == "Terminated" for p in lost)
    assert all(not p.container.running for p in lost)
    assert cluster.pods() == []
