"""Node fleets: hundreds of scrape targets behind DaemonSet discovery.

The paper's §5.4 deployment is one exporter per node found via
annotation-driven discovery.  This module scales that shape to a
*fleet*: a :class:`NodeFleet` mass-produces cluster nodes (each a full
simulated host on the shared cluster clock) carrying one
:class:`FleetExporter` pod from a DaemonSet, with seeded churn
(:class:`FleetChurner` joins, drains and reboots nodes on the virtual
clock) — every topology event journalled in the run's one
:class:`~repro.faults.plan.FaultPlan`.

Two properties make fleets chaos-testable:

* **pure expositions** — a fleet exporter's body is a pure function of
  (node name, virtual time).  Two HA monitor replicas
  scraping the same node at the same instant read identical bytes, and
  same-seed reruns are byte-identical end to end;
* **explicit route lifecycle** — a failed node's ``/metrics`` route is
  withdrawn from the shared network (a dead host serves nothing), so
  the scraper sees hard failures, marks the target down, and — once
  discovery stops returning it — writes its staleness markers instead
  of keeping phantom series alive.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError, OrchestrationError
from repro.net.http import HttpNetwork
from repro.orchestration.container import ContainerImage
from repro.orchestration.kubernetes import Cluster, Node, PodSpec
from repro.simkernel.clock import NANOS_PER_SEC
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng

#: Port/path every fleet exporter serves on (its own node's hostname).
FLEET_EXPORTER_PORT = 9790
FLEET_EXPORTER_PATH = "/metrics"


class FleetExporter:
    """A per-node exporter whose exposition is a pure function of time.

    Serves the enclave-health signals the anomaly detector and the
    built-in alert rules watch (EPC evictions, AEXs, syscalls) plus a
    ``fleet_exporter_build_info`` marker.  Counters are computed
    from elapsed virtual time and the node's name-derived phase — no
    internal mutable state — so any number of monitors scraping at any
    cadence observe one consistent timeline.
    """

    def __init__(self, kernel: Kernel, network: HttpNetwork,
                 epc_evictions_per_s: float = 8.0,
                 aexs_per_s: float = 20.0,
                 syscalls_per_s: float = 400.0) -> None:
        self.kernel = kernel
        self.network = network
        self.epc_evictions_per_s = epc_evictions_per_s
        self.aexs_per_s = aexs_per_s
        self.syscalls_per_s = syscalls_per_s
        #: Name-derived phase in [0, 1): staggers the utilization wave so
        #: the fleet is heterogeneous but reproducible.
        self.phase = (zlib.crc32(kernel.hostname.encode()) % 1000) / 1000.0
        #: Injected EPC-thrash windows: (start_ns, end_ns, pages_per_s).
        self.thrash_windows: List[Tuple[int, int, float]] = []
        self.scrapes_served = 0
        self._registered = False
        self._register()

    # ------------------------------------------------------------------
    def _register(self) -> None:
        self.network.register(
            self.kernel.hostname, FLEET_EXPORTER_PORT, FLEET_EXPORTER_PATH,
            self._serve,
        )
        self._registered = True

    def withdraw(self) -> None:
        """Remove the /metrics route (the host became unreachable)."""
        if not self._registered:
            return
        try:
            self.network.unregister(
                self.kernel.hostname, FLEET_EXPORTER_PORT, FLEET_EXPORTER_PATH
            )
        except NetworkError:
            pass  # already gone (network-level teardown raced us)
        self._registered = False

    def shutdown(self) -> None:
        """Container stop hook: a graceful stop also withdraws the route."""
        self.withdraw()

    @property
    def url(self) -> str:
        """The scrape URL (``Pod.scrape_target`` picks this up)."""
        return (
            f"http://{self.kernel.hostname}:{FLEET_EXPORTER_PORT}"
            f"{FLEET_EXPORTER_PATH}"
        )

    # ------------------------------------------------------------------
    def inject_epc_thrash(self, start_ns: int, end_ns: int,
                          pages_per_s: float) -> None:
        """Add an EPC-thrash burst window to this node's timeline."""
        if end_ns <= start_ns:
            raise OrchestrationError(
                f"empty thrash window: [{start_ns}, {end_ns})"
            )
        self.thrash_windows.append((start_ns, end_ns, pages_per_s))

    def _thrash_pages(self, now_ns: int) -> float:
        total = 0.0
        for start_ns, end_ns, pages_per_s in self.thrash_windows:
            overlap_ns = min(now_ns, end_ns) - start_ns
            if overlap_ns > 0:
                total += pages_per_s * (overlap_ns / NANOS_PER_SEC)
        return total

    def _serve(self) -> str:
        self.scrapes_served += 1
        t = self.kernel.clock.now_ns / NANOS_PER_SEC
        evicted = self.epc_evictions_per_s * t + self._thrash_pages(
            self.kernel.clock.now_ns
        )
        aexs = self.aexs_per_s * t
        syscalls = self.syscalls_per_s * t
        # Sawtooth utilization staggered by the name-derived phase.
        utilization = 0.30 + 0.40 * (((t / 60.0) + self.phase) % 1.0)
        return (
            'fleet_exporter_build_info{version="v1"} 1\n'
            f"sgx_epc_pages_evicted_total {evicted:.3f}\n"
            f"sgx_aexs_total {aexs:.3f}\n"
            f'ebpf_syscalls_total{{name="read"}} {syscalls:.3f}\n'
            f"node_cpu_utilization {utilization:.6f}\n"
        )


class NodeFleet:
    """Mass-produces exporter-carrying nodes behind DaemonSet discovery.

    Every topology change goes through here so the three bookkeeping
    planes stay consistent: the cluster (nodes/pods), the network
    (exporter routes), and the fault journal (``FLEET`` events).
    """

    def __init__(self, cluster: Cluster, network: HttpNetwork,
                 rng: DeterministicRng, plan=None,
                 job: str = "sgx", node_prefix: str = "node") -> None:
        self.cluster = cluster
        self.network = network
        self.plan = plan
        self.job = job
        self.node_prefix = node_prefix
        self._rng = rng.fork("fleet")
        self._exporters: Dict[str, FleetExporter] = {}
        self._next_index = 0
        self._rebooting: Dict[str, object] = {}
        self.joins = 0
        self.leaves = 0
        self.reboots = 0
        cluster.apply_daemonset(PodSpec(
            name="fleet-exporter",
            image=ContainerImage(
                name="fleet-exporter", entrypoint=self._entrypoint
            ),
            annotations={
                "prometheus.io/scrape": "true",
                "prometheus.io/job": job,
            },
        ))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _entrypoint(self, kernel: Kernel, container_id: str) -> FleetExporter:
        exporter = FleetExporter(kernel, self.network)
        self._exporters[kernel.hostname] = exporter
        return exporter

    def _record(self, kind: str, subject: str) -> None:
        if self.plan is not None:
            self.plan.record(kind, subject, method="FLEET")

    def _join(self, name: str, kind: str) -> str:
        # The node's kernel seed derives from its name alone, so a
        # rebooted node resumes the exact host it was before.
        seed = self._rng.fork(name).getrandbits(32)
        kernel = Kernel(seed=seed, hostname=name, clock=self.cluster.clock)
        self.cluster.add_node(Node(kernel))
        self.joins += 1
        self._record(kind, name)
        return name

    def add_nodes(self, count: int) -> List[str]:
        """Join ``count`` fresh nodes; the DaemonSet pods them."""
        names = []
        for _ in range(count):
            name = f"{self.node_prefix}-{self._next_index}"
            self._next_index += 1
            names.append(self._join(name, "node-join"))
        return names

    def remove_node(self, name: str, kind: str = "node-leave") -> None:
        """A node departs abruptly: pods die, its route is withdrawn."""
        self.cluster.fail_node(name)
        exporter = self._exporters.pop(name, None)
        if exporter is not None:
            exporter.withdraw()
        self.leaves += 1
        self._record(kind, name)

    def reboot_node(self, name: str, downtime_s: float = 10.0) -> None:
        """Take a node down and rejoin it (same name, same derived seed)
        after ``downtime_s`` of virtual time."""
        if name in self._rebooting:
            raise OrchestrationError(f"node already rebooting: {name}")
        self.remove_node(name, kind="node-reboot-down")
        self.reboots += 1

        def rejoin() -> None:
            self._rebooting.pop(name, None)
            self._join(name, "node-reboot-up")

        self._rebooting[name] = self.cluster.clock.call_later(
            int(downtime_s * NANOS_PER_SEC), rejoin
        )

    def node_names(self) -> List[str]:
        """Live node names, sorted (the churner's victim pool)."""
        return sorted(
            node.name for node in self.cluster.nodes()
            if node.name.startswith(f"{self.node_prefix}-")
        )

    def exporter(self, name: str) -> FleetExporter:
        """The live exporter on one node."""
        try:
            return self._exporters[name]
        except KeyError:
            raise OrchestrationError(
                f"no live exporter on node: {name}"
            ) from None

    def discovery(self):
        """The scrape-discovery callback (pass to ``add_discovery``)."""
        return self.cluster.discover_scrape_targets

    def stats(self) -> Dict[str, int]:
        """Fleet lifecycle counters."""
        return {
            "nodes": len(self.node_names()),
            "joins": self.joins,
            "leaves": self.leaves,
            "reboots": self.reboots,
            "rebooting": len(self._rebooting),
        }


class FleetChurner:
    """Seeded node churn on the virtual clock.

    Every tick draws one action — join a fresh node, drain a random one,
    or reboot a random one — from the fleet rng's ``churn`` substream,
    so the whole churn history is a pure function of the seed.  The
    fleet size is clamped to ``[min_nodes, max_nodes]``: a drain at the
    floor (or a join at the ceiling) becomes the opposite action, which
    keeps the event *count* stable across parameter tweaks.
    """

    def __init__(self, fleet: NodeFleet, interval_s: float = 15.0,
                 join_weight: float = 1.0, leave_weight: float = 1.0,
                 reboot_weight: float = 1.0,
                 reboot_downtime_s: float = 10.0,
                 min_nodes: int = 1, max_nodes: int = 1000) -> None:
        if interval_s <= 0:
            raise OrchestrationError(
                f"interval_s must be positive: {interval_s}"
            )
        if min_nodes < 0 or max_nodes < min_nodes:
            raise OrchestrationError(
                f"bad fleet bounds: [{min_nodes}, {max_nodes}]"
            )
        total = join_weight + leave_weight + reboot_weight
        if total <= 0:
            raise OrchestrationError("churn weights must sum positive")
        self.fleet = fleet
        self.interval_ns = int(interval_s * NANOS_PER_SEC)
        self.weights = (join_weight, leave_weight, reboot_weight)
        self.reboot_downtime_s = reboot_downtime_s
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self._rng = fleet._rng.fork("churn")
        self._timer = None
        self._running = False
        self.events = 0

    def start(self) -> None:
        """Begin churning."""
        if self._running:
            raise OrchestrationError("churner already started")
        self._running = True
        self._timer = self.fleet.cluster.clock.call_later(
            self.interval_ns, self._tick
        )

    def stop(self) -> None:
        """Stop churning (pending reboots still rejoin)."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _pick_action(self, population: int) -> str:
        join_w, leave_w, reboot_w = self.weights
        draw = self._rng.random() * (join_w + leave_w + reboot_w)
        if draw < join_w:
            action = "join"
        elif draw < join_w + leave_w:
            action = "leave"
        else:
            action = "reboot"
        # Clamp to the configured fleet-size band.
        if action == "join" and population >= self.max_nodes:
            action = "leave"
        if action in ("leave", "reboot") and population <= self.min_nodes:
            action = "join"
        return action

    def _tick(self) -> None:
        if not self._running:
            return
        fleet = self.fleet
        live = [
            name for name in fleet.node_names()
            if name not in fleet._rebooting
        ]
        action = self._pick_action(len(live))
        if action == "join" or not live:
            fleet.add_nodes(1)
        elif action == "leave":
            fleet.remove_node(self._rng.choice(live))
        else:
            fleet.reboot_node(
                self._rng.choice(live), downtime_s=self.reboot_downtime_s
            )
        self.events += 1
        self._timer = fleet.cluster.clock.call_later(
            self.interval_ns, self._tick
        )
