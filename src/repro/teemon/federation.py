"""Hierarchical federation topologies: leaf → region → global tiers.

PR 9's flat tier pointed every leaf at one global receiver.  This
module composes the same two primitives — the remote-write client and
receiver of :mod:`repro.pmag.remote_write` — into *trees*: a monitor
that runs both is a **relay** (its receiver lands downstream frames in
its TSDB, its client re-collects that TSDB by time window and ships
everything upstream re-stamped under the relay's own sender identity,
epoch and sequence numbering), so region tiers stack to any depth and
every tier keeps the full local view for region-scoped queries.

:class:`FederationTopology` is declarative: name each monitor, say what
it uplinks to, and ``build()`` derives the per-node config — receiver
URLs (an HA parent contributes its priority-0 replica as the primary
and the other as a mirror), ``remote_write_tier`` from the node's
height above the leaves (relays flush *after* the tier below delivered
at a shared instant, so steady-state frames cross each tier exactly
once), and per-replica sender identities.  Parents must be declared
before children, which makes uplink cycles impossible by construction —
the structural half of the loop guard; the runtime half is the
receiver rejecting frames stamped with its own identity.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import DeploymentError
from repro.net.http import HttpNetwork
from repro.pmag.remote_write import is_wire_safe
from repro.simkernel.clock import VirtualClock
from repro.simkernel.kernel import Kernel
from repro.teemon.config import TeemonConfig
from repro.teemon.deploy import TeemonDeployment, deploy
from repro.teemon.ha import HAMonitorPair, deploy_ha_pair
from repro.teemon.supervisor import MonitorSupervisor

#: Journal subject prefix of topology-managed crash/recover events.
FEDERATION_SUBJECT = "teemon-fed"


def _default_seed(name: str) -> int:
    """Deterministic per-node kernel seed derived from the node name."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class _NodeSpec:
    name: str
    config: TeemonConfig
    uplink: Optional[str]
    seed: int
    ha: bool
    network: Optional[HttpNetwork]


class FederationTopology:
    """Declarative builder of a leaf → region → global monitor tree.

    Usage::

        topo = FederationTopology(clock, network)
        topo.add("global", global_config)                  # root: receiver
        topo.add("region-0", relay_config, uplink="global")
        topo.add("leaf-0", leaf_config, uplink="region-0")
        nodes = topo.build()
        nodes["leaf-0"].add_discovery(fleet.discovery())

    Rules the builder enforces:

    * a node's ``uplink`` must already be declared (parents first), so
      the uplink graph is a forest by construction — no cycles, no
      self-uplinks;
    * every uplink target must run a receiver (both replicas of an HA
      parent), and every non-root node gets its uplink URL(s) derived —
      never spelled by hand: the primary is the parent (an HA parent's
      priority-0 replica), mirrors are the HA parent's other replica;
    * ``remote_write_tier`` is the node's *height* above the leaves
      (leaves 0, a relay over leaves 1, …) so each tier's flush tick is
      staggered after the deliveries of the tier below;
    * sender identity defaults to the node name (per-replica hostnames
      for HA nodes), and each monitor's receiver carries that identity
      as its loop guard.

    Chaos handles: every non-HA node with durable storage gets a
    :class:`MonitorSupervisor` (``crash(name)`` / ``recover(name)``),
    journalled under ``teemon-fed/<name>``; HA nodes already supervise
    their replicas (``pair.crash(index)``).
    """

    def __init__(self, clock: VirtualClock,
                 network: Optional[HttpNetwork] = None,
                 plan=None, heartbeat_interval_s: float = 1.0) -> None:
        self.clock = clock
        self.network = network if network is not None else HttpNetwork()
        self.plan = plan
        self.heartbeat_interval_s = heartbeat_interval_s
        self._specs: Dict[str, _NodeSpec] = {}
        self._order: List[str] = []
        #: name -> deployment (or HA pair), populated by :meth:`build`.
        self.nodes: Dict[str, Union[TeemonDeployment, HAMonitorPair]] = {}
        #: name -> supervisor, for non-HA nodes with a WAL.
        self.supervisors: Dict[str, MonitorSupervisor] = {}
        self._built = False

    # ------------------------------------------------------------------
    def add(self, name: str, config: TeemonConfig,
            uplink: Optional[str] = None, seed: Optional[int] = None,
            ha: bool = False,
            network: Optional[HttpNetwork] = None) -> None:
        """Declare one monitor node.

        ``uplink`` names an already-declared node this one ships to.
        ``seed`` pins the node's kernel seed (default: derived from the
        name, so same-named topologies are same-seeded).  ``ha`` deploys
        the node as an :class:`HAMonitorPair` (hostnames ``name-0`` /
        ``name-1``, seeds ``seed``/``seed+1``).  ``network`` overrides
        the shared network for this node's *client* side (fault
        injection on one uplink); its receiver stays on the shared
        network so other nodes can reach it.
        """
        if self._built:
            raise DeploymentError("topology already built")
        if not is_wire_safe(name):
            raise DeploymentError(f"node name not wire-safe: {name!r}")
        if name in self._specs:
            raise DeploymentError(f"duplicate federation node: {name!r}")
        if uplink is not None:
            if uplink == name:
                raise DeploymentError(
                    f"node {name!r} cannot uplink to itself"
                )
            parent = self._specs.get(uplink)
            if parent is None:
                raise DeploymentError(
                    f"unknown uplink {uplink!r} for node {name!r}: declare "
                    f"parents before children (keeps the tree cycle-free)"
                )
            if not parent.config.remote_write_receiver:
                raise DeploymentError(
                    f"uplink {uplink!r} runs no remote-write receiver"
                )
        if config.remote_write_url is not None:
            raise DeploymentError(
                f"node {name!r} sets remote_write_url directly; declare "
                f"the edge with uplink=... instead"
            )
        self._specs[name] = _NodeSpec(
            name=name, config=config, uplink=uplink,
            seed=_default_seed(name) if seed is None else seed,
            ha=ha, network=network,
        )
        self._order.append(name)

    def _heights(self) -> Dict[str, int]:
        """Height of each node above the leaf tier (leaves are 0)."""
        heights = {name: 0 for name in self._specs}
        # Children appear after their parent in declaration order, so
        # one reverse pass settles every height bottom-up.
        for name in reversed(self._order):
            uplink = self._specs[name].uplink
            if uplink is not None:
                heights[uplink] = max(heights[uplink], heights[name] + 1)
        return heights

    def _uplink_urls(self, uplink: str) -> List[str]:
        node = self.nodes[uplink]
        if isinstance(node, HAMonitorPair):
            return node.receiver_urls
        return [node.remote_write_receiver.url]

    def build(self, start: bool = True) -> Dict[
        str, Union[TeemonDeployment, HAMonitorPair]
    ]:
        """Deploy every declared node; returns ``{name: node}``.

        Deployment runs in declaration order (parents first), so each
        child's uplink URLs exist when its clients are built.
        """
        if self._built:
            raise DeploymentError("topology already built")
        self._built = True
        heights = self._heights()
        for name in self._order:
            spec = self._specs[name]
            overrides: Dict[str, object] = {
                "remote_write_tier": heights[name],
            }
            if spec.uplink is not None:
                urls = self._uplink_urls(spec.uplink)
                overrides["remote_write_url"] = urls[0]
                overrides["remote_write_mirror_urls"] = tuple(urls[1:])
            config = replace(spec.config, **overrides)
            network = spec.network if spec.network is not None else self.network
            if spec.ha:
                kernels = [
                    self._kernel(f"{name}-{index}", spec.seed + index, config)
                    for index in range(2)
                ]
                self.nodes[name] = deploy_ha_pair(
                    kernels, config, network=network, plan=self.plan,
                    subject=f"{FEDERATION_SUBJECT}/{name}",
                    heartbeat_interval_s=self.heartbeat_interval_s,
                    start=start,
                )
            else:
                deployment = deploy(
                    self._kernel(name, spec.seed, config), config,
                    network=network, start=start,
                )
                self.nodes[name] = deployment
                if config.enable_wal:
                    self.supervisors[name] = MonitorSupervisor(
                        deployment, self.plan,
                        subject=f"{FEDERATION_SUBJECT}/{name}",
                    )
        return self.nodes

    def _kernel(self, hostname: str, seed: int,
                config: TeemonConfig) -> Kernel:
        kernel = Kernel(seed=seed, hostname=hostname, clock=self.clock)
        if config.enable_exporters and config.enable_tme:
            from repro.sgx.driver import SgxDriver

            kernel.load_module(SgxDriver())
        return kernel

    # ------------------------------------------------------------------
    def node(self, name: str) -> Union[TeemonDeployment, HAMonitorPair]:
        """One built node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise DeploymentError(f"unknown federation node: {name!r}") from None

    def deployments(self, name: str) -> List[TeemonDeployment]:
        """The node's deployments (one, or an HA pair's two replicas)."""
        node = self.node(name)
        if isinstance(node, HAMonitorPair):
            return list(node.replicas)
        return [node]

    def crash(self, name: str):
        """Crash a supervised non-HA node (kill + disk power loss)."""
        try:
            supervisor = self.supervisors[name]
        except KeyError:
            raise DeploymentError(
                f"node {name!r} is not supervised (HA nodes crash via "
                f"pair.crash(index); others need enable_wal=True)"
            ) from None
        return supervisor.crash()

    def recover(self, name: str):
        """Recover a supervised non-HA node from its WAL."""
        try:
            supervisor = self.supervisors[name]
        except KeyError:
            raise DeploymentError(f"node {name!r} is not supervised") from None
        return supervisor.recover()
