"""Supervised crash/recovery of the monitoring process.

A :class:`MonitorSupervisor` is the systemd/Kubernetes analogue for the
aggregation process: it owns the crash → recover → continue cycle that
the :class:`~repro.faults.disk.CrashInjector` drives.  On
:meth:`crash` the deployment is killed abruptly and the simulated disk
loses its unsynced writes (capturing the medium's own loss report); on
:meth:`recover` the WAL is replayed into a fresh TSDB, the deployment is
resurrected around it, and both events are journalled in the
:class:`~repro.faults.plan.FaultPlan` alongside the network faults —
one journal, the whole fault history of a run.

The supervisor requires ``TeemonConfig(enable_wal=True)``: supervising a
deployment with no durable storage would just institutionalise total
data loss.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import DeploymentError
from repro.pmag.wal import RecoveryReport, recover_sharded
from repro.simkernel.clock import NANOS_PER_SEC
from repro.simkernel.disk import DiskCrashReport
from repro.teemon.deploy import TeemonDeployment

#: Journal subject for supervisor events (the "URL" column).
MONITOR_SUBJECT = "teemon-monitor"


class MonitorSupervisor:
    """Kills and resurrects a deployment's monitoring process."""

    def __init__(self, deployment: TeemonDeployment, plan=None,
                 subject: str = MONITOR_SUBJECT) -> None:
        if not deployment.config.enable_wal:
            raise DeploymentError(
                "supervised restart needs durable storage; deploy with "
                "TeemonConfig(enable_wal=True)"
            )
        self.deployment = deployment
        self.plan = plan
        #: Journal subject of this monitor's crash/recover events.  An HA
        #: pair supervises two replicas, so each needs its own name in
        #: the shared journal.
        self.subject = subject
        self.crashes = 0
        self.recoveries = 0
        self._last_crash: Optional[DiskCrashReport] = None
        self.reports: List[RecoveryReport] = []

    @property
    def running(self) -> bool:
        """Whether the monitor is currently alive."""
        return not self.deployment.crashed

    def crash(self) -> DiskCrashReport:
        """Kill the monitor and power-fail the disk; returns what the
        medium destroyed (held for the next :meth:`recover`)."""
        deployment = self.deployment
        if deployment.crashed:
            raise DeploymentError("monitor already crashed")
        deployment.kill()
        self._last_crash = deployment.disk.crash()
        self.crashes += 1
        if self.plan is not None:
            self.plan.record("crash", self.subject, method="PROC")
        return self._last_crash

    def recover(self) -> RecoveryReport:
        """Replay the WAL and resurrect the monitor; returns the report
        (per-shard loss rides along in ``report.shards``)."""
        deployment = self.deployment
        if not deployment.crashed:
            raise DeploymentError("monitor is not crashed")
        config = deployment.config
        tsdb, report = recover_sharded(
            deployment.disk,
            config.wal_dir,
            config.storage_shards,
            retention_ns=int(config.retention_hours * 3600 * NANOS_PER_SEC),
            crash_report=self._last_crash,
            plan=self.plan,
            block_policy=config.block_policy(),
        )
        self._last_crash = None
        deployment.resurrect(tsdb, report)
        self.recoveries += 1
        self.reports.append(report)
        if self.plan is not None:
            self.plan.record("recover", self.subject, method="PROC")
        return report

    def total_samples_lost(self) -> int:
        """Samples destroyed across every crash so far (exact)."""
        return sum(report.samples_lost for report in self.reports)
