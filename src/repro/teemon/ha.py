"""High-availability monitor pairs.

ReplicaTEE's answer to enclave-node failure is seamless replication; the
monitoring plane needs the same discipline or it stays the deployment's
single point of failure.  An :class:`HAMonitorPair` runs *two* full
monitor replicas against the same targets:

* both replicas scrape everything (active/active ingest) — there is no
  election on the write path, so a replica crash loses nothing the
  survivor saw;
* both remote-write upstream under distinct sender identities with
  distinct priorities: the receiver applies whichever frame lands first
  and its per-(series fingerprint, timestamp) monotonic-append check
  rejects the other replica's copy.  Replica flush ticks are staggered
  by priority, so "first" is deterministically the priority-0 replica
  whenever both are alive — the deterministic tie-break;
* queries route through a virtual-clock heartbeat lease: each tick the
  pair re-grants the lease to the healthiest lowest-priority replica,
  and every failover/failback is journalled in the shared
  :class:`~repro.faults.plan.FaultPlan` alongside the crash/recover
  events of the replicas' :class:`MonitorSupervisor`\\ s.

Consistency story (chaos-proven in ``tests/test_federation_chaos.py``):
killing either replica mid-scrape-cycle leaves global-tier query results
identical to an uninterrupted same-seed control outside the killed
replica's WAL-accounted ``samples_lost`` window, because the surviving
replica keeps shipping the same deterministic samples.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.errors import DeploymentError
from repro.net.http import HttpNetwork
from repro.simkernel.clock import NANOS_PER_SEC
from repro.simkernel.kernel import Kernel
from repro.teemon.config import TeemonConfig
from repro.teemon.deploy import TeemonDeployment, deploy
from repro.teemon.supervisor import MonitorSupervisor

#: Default journal subject prefix of pair events.
HA_SUBJECT = "teemon-ha"


class HAMonitorPair:
    """Two supervised monitor replicas behind one query lease.

    Both replicas are fully independent deployments (own TSDB, WAL,
    disk) that happen to watch the same world; the pair adds the lease
    and the failover journal.  Targets and discovery sources are
    registered on each of :attr:`replicas`.  Build replicas yourself for
    full control, or use :func:`deploy_ha_pair` for the common shape.
    """

    def __init__(self, replicas: Sequence[TeemonDeployment], plan=None,
                 subject: str = HA_SUBJECT,
                 heartbeat_interval_s: float = 1.0) -> None:
        if len(replicas) != 2:
            raise DeploymentError(
                f"an HA pair needs exactly 2 replicas, got {len(replicas)}"
            )
        if replicas[0].kernel.clock is not replicas[1].kernel.clock:
            raise DeploymentError(
                "HA replicas must share one virtual clock "
                "(build both kernels with clock=...)"
            )
        if heartbeat_interval_s <= 0:
            raise DeploymentError("heartbeat_interval_s must be positive")
        self.replicas: List[TeemonDeployment] = list(replicas)
        self.plan = plan
        self.subject = subject
        self.supervisors = [
            MonitorSupervisor(
                replica, plan, subject=f"{subject}/replica-{index}"
            )
            for index, replica in enumerate(self.replicas)
        ]
        self._clock = self.replicas[0].kernel.clock
        self._heartbeat_ns = int(heartbeat_interval_s * NANOS_PER_SEC)
        self._heartbeat_timer = None
        #: Index of the replica currently holding the query lease.
        self.active_index = 0
        self.heartbeats = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    # Lease / heartbeat
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin heartbeating the lease on the virtual clock."""
        if self._heartbeat_timer is not None:
            raise DeploymentError("HA pair already started")
        self._heartbeat_timer = self._clock.call_every(
            self._heartbeat_ns, self._heartbeat
        )

    def stop(self) -> None:
        """Stop the heartbeat (the replicas keep running)."""
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None

    def _preferred_index(self) -> int:
        """Healthiest lowest-priority replica (the lease target)."""
        for index, replica in enumerate(self.replicas):
            if not replica.crashed:
                return index
        raise DeploymentError("both HA replicas are down")

    def _grant(self, index: int, kind: str) -> None:
        self.active_index = index
        self.failovers += 1
        if self.plan is not None:
            self.plan.record(
                kind, f"{self.subject}/replica-{index}", method="PROC"
            )

    def _heartbeat(self) -> None:
        self.heartbeats += 1
        try:
            preferred = self._preferred_index()
        except DeploymentError:
            preferred = self.active_index  # both down: lease frozen
        if preferred != self.active_index:
            # preferred < active: the lower-priority replica healed
            # (failback); preferred > active: the holder died (failover).
            self._grant(
                preferred,
                "failback" if preferred < self.active_index else "failover",
            )

    @property
    def active(self) -> TeemonDeployment:
        """The replica holding the query lease.

        If the holder died since the last heartbeat, the lease moves
        eagerly (and is journalled) rather than serving a dead replica —
        the caller-visible guarantee is "queries route to a healthy
        replica", not "within one heartbeat".
        """
        if self.replicas[self.active_index].crashed:
            self._grant(self._preferred_index(), "failover")
        return self.replicas[self.active_index]

    @property
    def session(self):
        """The active replica's monitoring session."""
        return self.active.session

    @property
    def receiver_urls(self) -> List[str]:
        """Both replicas' remote-write endpoints, priority-0 first.

        What a downstream tier ships to when this pair sits above it:
        the first URL is the primary uplink, the rest are mirrors
        (:attr:`TeemonConfig.remote_write_mirror_urls`).  Both replicas
        then hold the full stream, so a replica crash at *this* tier
        loses nothing a downstream monitor shipped.
        """
        urls = []
        for replica in self.replicas:
            if replica.remote_write_receiver is None:
                raise DeploymentError(
                    "HA pair replicas run no remote-write receiver "
                    "(set remote_write_receiver=True)"
                )
            urls.append(replica.remote_write_receiver.url)
        return urls

    def query(self, expr: str):
        """Instant query against the lease holder."""
        return self.session.query(expr)

    # ------------------------------------------------------------------
    # Chaos handles
    # ------------------------------------------------------------------
    def crash(self, index: int):
        """Crash one replica (kill + disk power loss), journalled."""
        return self.supervisors[index].crash()

    def recover(self, index: int):
        """Recover one replica from its WAL, journalled."""
        return self.supervisors[index].recover()


def deploy_ha_pair(
    kernels: Sequence[Kernel],
    config: TeemonConfig,
    network: Optional[HttpNetwork] = None,
    plan=None,
    subject: str = HA_SUBJECT,
    heartbeat_interval_s: float = 1.0,
    start: bool = True,
) -> HAMonitorPair:
    """Deploy two replicas of ``config`` as an HA pair.

    ``kernels`` are the two replica hosts (they must share a clock).
    Each replica's config is derived from ``config``: the WAL is forced
    on (supervised recovery needs it), ``remote_write_priority`` becomes
    the replica index (the deterministic tie-break), and when a
    remote-write uplink is configured each replica ships under its own
    hostname so the receiver tracks their frame sequences separately.
    """
    if len(kernels) != 2:
        raise DeploymentError(
            f"an HA pair needs exactly 2 kernels, got {len(kernels)}"
        )
    network = network if network is not None else HttpNetwork()
    replicas = []
    for index, kernel in enumerate(kernels):
        overrides = {"enable_wal": True, "remote_write_priority": index}
        if config.remote_write_url is not None:
            overrides["remote_write_source"] = kernel.hostname
        replicas.append(deploy(
            kernel, replace(config, **overrides),
            network=network, start=start,
        ))
    pair = HAMonitorPair(
        replicas, plan=plan, subject=subject,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    if start:
        pair.start()
    return pair
