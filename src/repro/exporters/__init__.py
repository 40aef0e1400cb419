"""Performance Metrics Exporters (the paper's PME component).

Four exporters run per host, each in its own container in the paper's
deployment:

* :class:`~repro.exporters.tme.TeeMetricsExporter` — the SGX exporter:
  reads the instrumented driver's module parameters from
  ``/sys/module/isgx/parameters`` and serves them in OpenMetrics format
  over a Flask-like HTTP endpoint (§5.1);
* :class:`~repro.exporters.ebpf_exporter.EbpfExporter` — loads eBPF
  counting programs onto the Table-2 hooks (syscalls, context switches,
  page faults, cache statistics) and exports their maps;
* :class:`~repro.exporters.node_exporter.NodeExporter` — machine metrics
  from ``/proc`` (CPU, memory, filesystem, network);
* :class:`~repro.exporters.cadvisor.CadvisorExporter` — per-container
  utilisation metrics.

All exporters share :class:`~repro.exporters.base.Exporter`: a collector
registry, an HTTP endpoint, and a modelled resource footprint (CPU share
and memory) that the Figure-4 experiment measures.  Each class spells
its container name (``PROCESS_NAME``), scrape ``JOB``, port and path;
:data:`HOST_EXPORTERS` is the catalog both ``deploy()`` and the Helm
chart iterate.
"""

from repro.exporters.base import Exporter, ExporterFootprint
from repro.exporters.cadvisor import CadvisorExporter
from repro.exporters.ebpf_exporter import EbpfExporter, EbpfExporterConfig
from repro.exporters.node_exporter import NodeExporter
from repro.exporters.teemon_self import TeemonSelfExporter
from repro.exporters.tme import TeeMetricsExporter

#: The per-host exporters in Docker start order (it fixes pids and hook
#: attach order).
HOST_EXPORTERS = (TeeMetricsExporter, EbpfExporter, NodeExporter, CadvisorExporter)

__all__ = [
    "HOST_EXPORTERS",
    "Exporter",
    "ExporterFootprint",
    "TeeMetricsExporter",
    "EbpfExporter",
    "EbpfExporterConfig",
    "NodeExporter",
    "CadvisorExporter",
    "TeemonSelfExporter",
]
