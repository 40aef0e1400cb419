"""Container and cluster orchestration models.

§5.4 of the paper: "TEEMon components are encapsulated in individual
Docker containers ... they can also be deployed ... by an orchestrator,
such as Kubernetes ... each of TEEMon's metrics exporters is deployed
(using Helm) in a daemon-like fashion (as DaemonSet resource) ...
Kubernetes offers service discovery and resource annotations that TEEMon
uses to connect the performance metric aggregation component ... TEE-
related metrics exporters can be deployed selectively on nodes that
support TEEs" (via taints/labels).

This package models all of that:

* :mod:`repro.orchestration.container` — images and a per-host container
  runtime;
* :mod:`repro.orchestration.kubernetes` — a cluster of simulated hosts,
  pods, node labels/taints and tolerations, DaemonSets, and
  annotation-driven service discovery;
* :mod:`repro.orchestration.helm` — a chart model and the TEEMon chart:
  one DaemonSet per exporter of the :data:`repro.exporters.HOST_EXPORTERS`
  catalog (the one Docker deployments start), and one
  :class:`~repro.teemon.deploy.TeemonDeployment` on a monitor host,
  discovering the exporters' pods durably;
* :mod:`repro.orchestration.fleet` — node fleets at scale: DaemonSet
  exporters across hundreds of nodes with seeded churn and rolling
  upgrades.
"""

from repro.orchestration.container import Container, ContainerImage, DockerRuntime
from repro.orchestration.fleet import FleetChurner, FleetExporter, NodeFleet
from repro.orchestration.helm import HelmChart, install_teemon_chart
from repro.orchestration.kubernetes import (
    Cluster,
    DaemonSet,
    Deployment,
    Node,
    Pod,
    PodSpec,
    Taint,
)

__all__ = [
    "ContainerImage",
    "Container",
    "DockerRuntime",
    "Cluster",
    "Node",
    "Pod",
    "PodSpec",
    "Taint",
    "DaemonSet",
    "Deployment",
    "FleetChurner",
    "FleetExporter",
    "NodeFleet",
    "HelmChart",
    "install_teemon_chart",
]
