"""Helm-like chart model and the TEEMon chart.

"We created a chart to install TEEMon in large-scale infrastructures
managed by Kubernetes." (§5.4)  A :class:`HelmChart` is a named set of
resource factories parameterised by values; :func:`install_teemon_chart`
is the TEEMon chart itself: per-node exporter DaemonSets (the SGX exporter
restricted to SGX-labelled nodes), a Prometheus-equivalent aggregation pod
wired to annotation-based service discovery, Grafana-equivalent
dashboards, and the PMAN analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import OrchestrationError
from repro.exporters import (
    CadvisorExporter,
    EbpfExporter,
    NodeExporter,
    TeeMetricsExporter,
)
from repro.net.http import HttpNetwork
from repro.orchestration.container import ContainerImage
from repro.orchestration.kubernetes import (
    Cluster,
    PodSpec,
    SEV_ENABLED,
    SEV_LABEL,
    SGX_ENABLED,
    SGX_LABEL,
    Taint,
)
from repro.pmag.query.engine import QueryEngine
from repro.pmag.scrape import ScrapeManager
from repro.pmag.tsdb import Tsdb
from repro.pman.analyzer import PmanAnalyzer
from repro.pmv.dashboards import (
    build_docker_dashboard,
    build_infra_dashboard,
    build_sgx_dashboard,
)
from repro.simkernel.clock import NANOS_PER_SEC


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
    network: HttpNetwork
    tsdb: Tsdb
    scrape_manager: ScrapeManager
    engine: QueryEngine
    analyzer: PmanAnalyzer
    dashboards: Dict[str, Any] = field(default_factory=dict)

    def uninstall(self) -> None:
        """Stop scraping and analysis; delete TEEMon pods."""
        self.scrape_manager.stop()
        self.analyzer.stop()
        for pod in list(self.cluster.pods()):
            if pod.spec.name.startswith("teemon-"):
                self.cluster.delete_pod(pod.name)


def _exporter_image(name: str, factory) -> ContainerImage:
    return ContainerImage(
        name=name,
        entrypoint=factory,
        labels={"app.kubernetes.io/part-of": "teemon"},
    )


def _install_teemon(cluster: Cluster, network: HttpNetwork,
                    values: Dict[str, Any]) -> TeemonRelease:
    def node_exporter_entry(kernel, container_id):
        exporter = NodeExporter(kernel, container_id=container_id)
        exporter.expose(network)
        return exporter

    def ebpf_exporter_entry(kernel, container_id):
        exporter = EbpfExporter(kernel, container_id=container_id)
        exporter.expose(network)
        return exporter

    def cadvisor_entry(kernel, container_id):
        exporter = CadvisorExporter(kernel, container_id=container_id)
        exporter.expose(network)
        return exporter

    def sgx_exporter_entry(kernel, container_id):
        exporter = TeeMetricsExporter(kernel, container_id=container_id)
        exporter.expose(network)
        return exporter

    scrape_annotations = {"prometheus.io/scrape": "true"}

    daemonset_specs = [
        PodSpec(
            name="teemon-node-exporter",
            image=_exporter_image("node-exporter", node_exporter_entry),
            annotations={**scrape_annotations, "prometheus.io/job": "node"},
        ),
        PodSpec(
            name="teemon-ebpf-exporter",
            image=_exporter_image("ebpf-exporter", ebpf_exporter_entry),
            annotations={**scrape_annotations, "prometheus.io/job": "ebpf"},
        ),
    ]
    if values["cadvisor.enabled"]:
        daemonset_specs.append(
            PodSpec(
                name="teemon-cadvisor",
                image=_exporter_image("cadvisor", cadvisor_entry),
                annotations={**scrape_annotations, "prometheus.io/job": "cadvisor"},
            )
        )
    # TEE exporters only land on capable nodes (labels + taints).
    daemonset_specs.append(
        PodSpec(
            name="teemon-sgx-exporter",
            image=_exporter_image("sgx-exporter", sgx_exporter_entry),
            node_selector={SGX_LABEL: SGX_ENABLED},
            tolerations=[Taint(SGX_LABEL, SGX_ENABLED)],
            annotations={**scrape_annotations, "prometheus.io/job": "sgx"},
        )
    )
    if values["sev.enabled"]:
        def sev_exporter_entry(kernel, container_id):
            from repro.sev.exporter import SevMetricsExporter

            exporter = SevMetricsExporter(kernel, container_id=container_id)
            exporter.expose(network)
            return exporter

        daemonset_specs.append(
            PodSpec(
                name="teemon-sev-exporter",
                image=_exporter_image("sev-exporter", sev_exporter_entry),
                node_selector={SEV_LABEL: SEV_ENABLED},
                tolerations=[Taint(SEV_LABEL, SEV_ENABLED)],
                annotations={**scrape_annotations, "prometheus.io/job": "sev"},
            )
        )
    for spec in daemonset_specs:
        cluster.apply_daemonset(spec)

    # Aggregation: Prometheus-equivalent, one instance, discovery-driven.
    tsdb = Tsdb(retention_ns=int(values["prometheus.retention_hours"] * 3600 * NANOS_PER_SEC))
    scrape_manager = ScrapeManager(
        cluster.clock, network, tsdb,
        interval_ns=int(values["prometheus.scrape_interval_s"] * NANOS_PER_SEC),
    )
    scrape_manager.add_discovery(cluster.discover_scrape_targets)
    scrape_manager.start()

    engine = QueryEngine(tsdb)
    analyzer = PmanAnalyzer(cluster.clock, engine, tsdb)
    analyzer.start()

    dashboards = {
        "sgx": build_sgx_dashboard(),
        "docker": build_docker_dashboard(),
        "infra": build_infra_dashboard(),
    }
    for dashboard in dashboards.values():
        analyzer.add_sink(dashboard.alert_sink())

    return TeemonRelease(
        cluster=cluster,
        network=network,
        tsdb=tsdb,
        scrape_manager=scrape_manager,
        engine=engine,
        analyzer=analyzer,
        dashboards=dashboards,
    )


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
