"""Supervised crash/recovery of the monitoring process.

A :class:`MonitorSupervisor` is the systemd/Kubernetes analogue for the
aggregation process: it owns the crash → recover → continue cycle that
the :class:`~repro.faults.disk.CrashInjector` drives.  On
:meth:`crash` the deployment is killed abruptly and the simulated disk
loses its unsynced writes (capturing the medium's own loss report); on
:meth:`recover` the deployment is resurrected from its WAL.  Both events
are journalled in the :class:`~repro.faults.plan.FaultPlan` alongside
the network faults — one journal, the whole fault history of a run.

The supervisor requires ``TeemonConfig(enable_wal=True)``: supervising a
deployment with no durable storage would just institutionalise total
data loss.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import DeploymentError
from repro.pmag.wal import RecoveryReport
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
        """Resurrect the monitor from its WAL
        (:meth:`~repro.teemon.deploy.TeemonDeployment.resurrect`); returns
        the report (per-partition loss rides along in ``report.shards``)."""
        deployment = self.deployment
        if not deployment.crashed:
            raise DeploymentError("monitor is not crashed")
        report = deployment.resurrect(self._last_crash, self.plan)
        self._last_crash = None
        self.recoveries += 1
        self.reports.append(report)
        if self.plan is not None:
            self.plan.record("recover", self.subject, method="PROC")
        return report

    def total_samples_lost(self) -> int:
        """Samples destroyed across every crash so far (exact)."""
        return sum(report.samples_lost for report in self.reports)
