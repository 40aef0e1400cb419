"""A Kubernetes-like cluster model.

Covers the §5.4 feature set TEEMon relies on:

* **nodes** — one simulated host each, with labels and taints (a node
  advertising SGX carries the ``sgx=enabled`` label, produced here by
  actually checking whether the ``isgx`` module is loaded);
* **pods** — containers scheduled onto nodes, subject to node selectors
  and taint/toleration rules;
* **DaemonSets** — one pod per matching node, *including nodes added
  later* (the controller reconciles on node join);
* **annotations + service discovery** — pods annotated with
  ``prometheus.io/scrape`` surface scrape targets, which the PMAG's
  discovery callback consumes, adapting to topology changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import OrchestrationError
from repro.orchestration.container import Container, ContainerImage, DockerRuntime
from repro.pmag.scrape import ScrapeTarget
from repro.simkernel.clock import VirtualClock
from repro.simkernel.kernel import Kernel

SGX_LABEL = "sgx"
SGX_ENABLED = "enabled"
SEV_LABEL = "sev"
SEV_ENABLED = "enabled"
#: The label a node gets for each loaded TEE driver, by module name; a
#: TEE exporter (``Exporter.MODULE``) is placed by the same label.
TEE_LABELS: Dict[str, Tuple[str, str]] = {
    "isgx": (SGX_LABEL, SGX_ENABLED),
    "ccp": (SEV_LABEL, SEV_ENABLED),
}


@dataclass(frozen=True)
class Taint:
    """A node taint; pods need a matching toleration to schedule."""

    key: str
    value: str
    effect: str = "NoSchedule"


@dataclass
class PodSpec:
    """What to run and where it may run."""

    name: str
    image: ContainerImage
    node_selector: Dict[str, str] = field(default_factory=dict)
    tolerations: List[Taint] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)

    def tolerates(self, taint: Taint) -> bool:
        """Whether this pod tolerates a taint."""
        return any(
            t.key == taint.key and t.value == taint.value for t in self.tolerations
        )

    def matches_node(self, node: "Node") -> bool:
        """Selector + taint admission check."""
        for key, value in self.node_selector.items():
            if node.labels.get(key) != value:
                return False
        return all(self.tolerates(taint) for taint in node.taints)


@dataclass
class Pod:
    """A scheduled pod."""

    name: str
    spec: PodSpec
    node_name: str
    container: Container
    phase: str = "Running"

    def scrape_target(self) -> Optional[ScrapeTarget]:
        """Derive a scrape target from prometheus.io annotations."""
        annotations = self.spec.annotations
        if annotations.get("prometheus.io/scrape") != "true":
            return None
        component = self.container.component
        url = getattr(component, "url", None)
        if url is None:
            port = annotations.get("prometheus.io/port", "80")
            path = annotations.get("prometheus.io/path", "/metrics")
            url = f"http://{self.node_name}:{port}{path}"
        return ScrapeTarget(
            job=annotations.get("prometheus.io/job", self.spec.name),
            instance=self.node_name,
            url=url,
        )


class Node:
    """One cluster node: a simulated host plus metadata."""

    def __init__(self, kernel: Kernel, labels: Optional[Dict[str, str]] = None,
                 taints: Optional[List[Taint]] = None) -> None:
        self.kernel = kernel
        self.name = kernel.hostname
        self.labels: Dict[str, str] = dict(labels or {})
        self.taints: List[Taint] = list(taints or [])
        self.docker = DockerRuntime(kernel)
        # Nodes advertise TEE capabilities by inspecting their own
        # hardware, like the device-plugin / NFD flow in real clusters.
        for module, (key, value) in TEE_LABELS.items():
            if kernel.has_module(module):
                self.labels.setdefault(key, value)


class DaemonSet:
    """One pod per matching node, reconciled as nodes join."""

    def __init__(self, spec: PodSpec) -> None:
        self.spec = spec
        self.pods_by_node: Dict[str, Pod] = {}

    def reconcile(self, cluster: "Cluster") -> List[Pod]:
        """Create pods on matching nodes that lack one; returns new pods."""
        created: List[Pod] = []
        for node in cluster.nodes():
            if node.name in self.pods_by_node:
                continue
            if not self.spec.matches_node(node):
                continue
            pod = cluster.schedule_pod(self.spec, node=node)
            self.pods_by_node[node.name] = pod
            created.append(pod)
        return created


class Deployment:
    """Replica-count controller: keeps N pods of a spec running.

    Reconciliation creates missing replicas (least-loaded placement) and
    deletes extras; pods lost to node failure are replaced on the next
    reconcile, which the cluster triggers automatically.
    """

    def __init__(self, spec: PodSpec, replicas: int) -> None:
        if replicas < 0:
            raise OrchestrationError("replicas must be non-negative")
        self.spec = spec
        self.replicas = replicas
        self.pods: List[Pod] = []

    def scale(self, replicas: int) -> None:
        """Change the desired replica count (reconciled by the cluster)."""
        if replicas < 0:
            raise OrchestrationError("replicas must be non-negative")
        self.replicas = replicas

    def reconcile(self, cluster: "Cluster") -> Tuple[List[Pod], List[Pod]]:
        """Converge to the desired count; returns (created, deleted)."""
        self.pods = [p for p in self.pods if p.phase == "Running"]
        created: List[Pod] = []
        deleted: List[Pod] = []
        while len(self.pods) < self.replicas:
            try:
                pod = cluster.schedule_pod(self.spec)
            except OrchestrationError:
                break  # no schedulable node: stay degraded, retry later
            self.pods.append(pod)
            created.append(pod)
        while len(self.pods) > self.replicas:
            victim = self.pods.pop()
            cluster.delete_pod(victim.name)
            deleted.append(victim)
        return created, deleted


class Cluster:
    """The cluster: nodes, pods, DaemonSets, Deployments, discovery."""

    #: Kubernetes supports up to 5000 nodes per cluster (§5.4 / [20]).
    MAX_NODES = 5000

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._nodes: Dict[str, Node] = {}
        self._pods: Dict[str, Pod] = {}
        self._daemonsets: List[DaemonSet] = []
        self._deployments: List[Deployment] = []
        self._pod_ids = itertools.count(start=1)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Join a node; DaemonSets reconcile onto it immediately."""
        if len(self._nodes) >= self.MAX_NODES:
            raise OrchestrationError(f"cluster is at its {self.MAX_NODES}-node limit")
        if node.name in self._nodes:
            raise OrchestrationError(f"node name in use: {node.name}")
        if node.kernel.clock is not self.clock:
            raise OrchestrationError(
                f"node {node.name} is not on the cluster clock; "
                "construct its Kernel with clock=cluster.clock"
            )
        self._nodes[node.name] = node
        for daemonset in self._daemonsets:
            daemonset.reconcile(self)
        self.reconcile_deployments()  # degraded Deployments recover
        return node

    def node(self, name: str) -> Node:
        """Look up a node."""
        try:
            return self._nodes[name]
        except KeyError:
            raise OrchestrationError(f"no such node: {name}") from None

    def nodes(self) -> List[Node]:
        """All nodes in join order."""
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # Pods
    # ------------------------------------------------------------------
    def schedule_pod(self, spec: PodSpec, node: Optional[Node] = None) -> Pod:
        """Schedule one pod (explicitly placed or first matching node)."""
        if node is None:
            candidates = [n for n in self.nodes() if spec.matches_node(n)]
            if not candidates:
                raise OrchestrationError(
                    f"pod {spec.name}: no node matches selector "
                    f"{spec.node_selector} / taints"
                )
            # Least-loaded placement.
            node = min(candidates, key=lambda n: len(self.pods_on(n.name)))
        elif not spec.matches_node(node):
            raise OrchestrationError(
                f"pod {spec.name} cannot schedule on {node.name}: "
                "selector or taints do not match"
            )
        pod_name = f"{spec.name}-{next(self._pod_ids)}"
        container = node.docker.run(spec.image, name=pod_name)
        pod = Pod(name=pod_name, spec=spec, node_name=node.name, container=container)
        self._pods[pod_name] = pod
        return pod

    def delete_pod(self, name: str) -> None:
        """Delete a pod, stopping its container."""
        pod = self._pods.pop(name, None)
        if pod is None:
            raise OrchestrationError(f"no such pod: {name}")
        if pod.container.running:
            pod.container.stop()
        pod.phase = "Terminated"
        for daemonset in self._daemonsets:
            if daemonset.pods_by_node.get(pod.node_name) is pod:
                del daemonset.pods_by_node[pod.node_name]

    def pods(self) -> List[Pod]:
        """All live pods."""
        return list(self._pods.values())

    def pods_on(self, node_name: str) -> List[Pod]:
        """Pods scheduled on one node."""
        return [p for p in self._pods.values() if p.node_name == node_name]

    # ------------------------------------------------------------------
    # DaemonSets and discovery
    # ------------------------------------------------------------------
    def apply_daemonset(self, spec: PodSpec) -> DaemonSet:
        """Install a DaemonSet and reconcile it now."""
        daemonset = DaemonSet(spec)
        self._daemonsets.append(daemonset)
        daemonset.reconcile(self)
        return daemonset

    def delete_daemonset(self, daemonset: DaemonSet) -> None:
        """Remove a DaemonSet and delete every pod it runs."""
        if daemonset not in self._daemonsets:
            raise OrchestrationError(f"no such daemonset: {daemonset.spec.name}")
        for pod in list(daemonset.pods_by_node.values()):
            self.delete_pod(pod.name)
        self._daemonsets.remove(daemonset)

    def apply_deployment(self, spec: PodSpec, replicas: int) -> Deployment:
        """Install a Deployment and reconcile it now."""
        deployment = Deployment(spec, replicas)
        self._deployments.append(deployment)
        deployment.reconcile(self)
        return deployment

    def reconcile_deployments(self) -> None:
        """Converge every Deployment (called after topology changes)."""
        for deployment in self._deployments:
            deployment.reconcile(self)

    def fail_node(self, name: str) -> List[Pod]:
        """A node dies: its pods terminate, controllers reconcile.

        Returns the pods that were lost.  DaemonSet pods are not
        rescheduled elsewhere (they are node-bound); Deployment replicas
        are recreated on surviving nodes.
        """
        node = self.node(name)
        lost: List[Pod] = []
        for pod in list(self.pods_on(name)):
            # The node is gone: containers die with it (no graceful stop).
            pod.container.running = False
            pod.phase = "Terminated"
            del self._pods[pod.name]
            lost.append(pod)
        del self._nodes[name]
        for daemonset in self._daemonsets:
            daemonset.pods_by_node.pop(name, None)
        self.reconcile_deployments()
        return lost

    def discover_scrape_targets(self) -> List[ScrapeTarget]:
        """Annotation-driven service discovery (the PMAG callback)."""
        targets: List[ScrapeTarget] = []
        for pod in self._pods.values():
            if pod.phase != "Running":
                continue
            target = pod.scrape_target()
            if target is not None:
                targets.append(target)
        return targets
