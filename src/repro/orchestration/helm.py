"""Helm-like chart model and the TEEMon chart.

"We created a chart to install TEEMon in large-scale infrastructures
managed by Kubernetes." (§5.4)  A :class:`HelmChart` is a named set of
resource factories parameterised by values; :func:`install_teemon_chart`
is the TEEMon chart itself: one DaemonSet per catalog exporter
(:data:`repro.exporters.HOST_EXPORTERS`, plus SEV; TEE exporters only on
nodes labelled for their driver), and one
:class:`~repro.teemon.deploy.TeemonDeployment` — the same monitor
``deploy()`` stands up on a Docker host — wired to annotation-based
service discovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import OrchestrationError
from repro.exporters import HOST_EXPORTERS, CadvisorExporter
from repro.net.http import HttpNetwork
from repro.orchestration.container import ContainerImage
from repro.orchestration.kubernetes import (
    TEE_LABELS,
    Cluster,
    DaemonSet,
    PodSpec,
    Taint,
)
from repro.sev.exporter import SevMetricsExporter
from repro.simkernel.kernel import Kernel

if TYPE_CHECKING:
    from repro.teemon.deploy import TeemonDeployment

#: Hostname of the monitor host: a kernel on the cluster clock outside
#: the cluster, so node churn never reschedules (and empties) the monitor.
MONITOR_HOSTNAME = "teemon-monitor"


@dataclass
class HelmChart:
    """A named, versioned set of values + an installer."""

    name: str
    version: str
    default_values: Dict[str, Any]
    installer: Callable[["Cluster", HttpNetwork, Dict[str, Any]], Any]

    def install(
        self,
        cluster: Cluster,
        network: HttpNetwork,
        values: Optional[Dict[str, Any]] = None,
    ):
        """Render defaults + overrides and run the installer."""
        merged = dict(self.default_values)
        if values:
            unknown = set(values) - set(self.default_values)
            if unknown:
                raise OrchestrationError(
                    f"chart {self.name}: unknown values {sorted(unknown)}"
                )
            merged.update(values)
        return self.installer(cluster, network, merged)


@dataclass
class TeemonRelease:
    """A deployed TEEMon instance on a cluster."""

    cluster: Cluster
    deployment: TeemonDeployment
    #: The exporter DaemonSets the chart applied.
    daemonsets: List[DaemonSet]

    def uninstall(self) -> None:
        """Shut the monitor down; delete the DaemonSets and their pods."""
        self.deployment.shutdown()
        for daemonset in self.daemonsets:
            self.cluster.delete_daemonset(daemonset)


def _exporter_daemonset(exporter_cls, network: HttpNetwork) -> PodSpec:
    """One catalog exporter as a DaemonSet pod spec; a TEE exporter only
    lands on nodes carrying its driver's label."""

    def entrypoint(kernel, container_id):
        exporter = exporter_cls(kernel, container_id=container_id)
        exporter.expose(network)
        return exporter

    node_selector, tolerations = {}, []
    if exporter_cls.MODULE is not None:
        key, value = TEE_LABELS[exporter_cls.MODULE]
        node_selector, tolerations = {key: value}, [Taint(key, value)]
    return PodSpec(
        name=f"teemon-{exporter_cls.PROCESS_NAME}",
        image=ContainerImage(
            name=exporter_cls.PROCESS_NAME, entrypoint=entrypoint,
            labels={"app.kubernetes.io/part-of": "teemon"},
        ),
        node_selector=node_selector,
        tolerations=tolerations,
        annotations={
            "prometheus.io/scrape": "true",
            "prometheus.io/job": exporter_cls.JOB,
        },
    )


def _install_teemon(cluster: Cluster, network: HttpNetwork,
                    values: Dict[str, Any]) -> TeemonRelease:
    # Imported here: repro.teemon imports this package (via the container
    # runtime), so a module-level import would be circular.
    from repro.teemon import TeemonConfig, deploy
    from repro.teemon.federation import host_seed

    catalog = [cls for cls in HOST_EXPORTERS
               if cls is not CadvisorExporter or values["cadvisor.enabled"]]
    if values["sev.enabled"]:
        catalog.append(SevMetricsExporter)
    daemonsets = [
        cluster.apply_daemonset(_exporter_daemonset(cls, network))
        for cls in catalog
    ]
    monitor = Kernel(seed=host_seed(MONITOR_HOSTNAME),
                     hostname=MONITOR_HOSTNAME, clock=cluster.clock)
    deployment = deploy(monitor, TeemonConfig(
        enable_exporters=False,
        scrape_interval_s=values["prometheus.scrape_interval_s"],
        retention_hours=values["prometheus.retention_hours"],
    ), network=network)
    deployment.add_discovery(cluster.discover_scrape_targets)
    return TeemonRelease(cluster, deployment, daemonsets)


TEEMON_CHART = HelmChart(
    name="teemon",
    version="1.0.0",
    default_values={
        "prometheus.scrape_interval_s": 5.0,
        "prometheus.retention_hours": 24.0,
        "cadvisor.enabled": True,
        "sev.enabled": True,
    },
    installer=_install_teemon,
)


def install_teemon_chart(
    cluster: Cluster,
    network: HttpNetwork,
    values: Optional[Dict[str, Any]] = None,
) -> TeemonRelease:
    """helm install teemon ./teemon-chart"""
    return TEEMON_CHART.install(cluster, network, values)
