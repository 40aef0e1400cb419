"""Shared exporter machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import DeploymentError
from repro.net.http import HttpEndpoint, HttpNetwork
from repro.openmetrics.encoder import encode_registry
from repro.openmetrics.registry import CollectorRegistry
from repro.simkernel.kernel import Kernel

MIB = 1024 * 1024


@dataclass(frozen=True)
class ExporterFootprint:
    """Modelled resource consumption of one monitoring component.

    ``cpu_fraction`` is the average share of one CPU the component uses
    while active; ``memory_bytes`` its resident set.  Values are calibrated
    per component to the paper's Figure 4 and are *charged to the host*
    when the exporter serves scrapes, so monitoring overhead is a real
    effect in the workload experiments, not an assumed constant.
    """

    cpu_fraction: float
    memory_bytes: int


class Exporter:
    """Base exporter: registry + HTTP endpoint + host process."""

    #: Default modelled footprint; subclasses override.
    FOOTPRINT = ExporterFootprint(cpu_fraction=0.005, memory_bytes=100 * MIB)
    #: Default port; subclasses override (node-exporter convention: 9100+).
    PORT = 9099
    #: Metrics path.
    PATH = "/metrics"
    #: Process/command name on the host; also the container (image) name.
    PROCESS_NAME = "exporter"
    #: Scrape job the exporter's series are stored under.
    JOB = "exporter"
    #: Kernel module the exporter reads (a TEE driver); None runs anywhere.
    MODULE: Optional[str] = None

    def __init__(self, kernel: Kernel, container_id: Optional[str] = None) -> None:
        self.kernel = kernel
        self.registry = CollectorRegistry()
        self.process = kernel.spawn_process(
            self.PROCESS_NAME, container_id=container_id
        )
        self.process.rss_bytes = self.FOOTPRINT.memory_bytes
        self._thread = next(iter(self.process.threads.values()))
        self._endpoint: Optional[HttpEndpoint] = None
        self._network: Optional[HttpNetwork] = None
        self._last_serve_ns = kernel.clock.now_ns
        self.scrapes_served = 0

    @property
    def url(self) -> str:
        """Endpoint URL once exposed."""
        if self._endpoint is None:
            raise RuntimeError(f"{self.PROCESS_NAME} endpoint not exposed yet")
        return self._endpoint.url

    def expose(self, network: HttpNetwork) -> HttpEndpoint:
        """Publish the /metrics endpoint on the simulated network."""
        self._endpoint = network.register(
            self.kernel.hostname, self.PORT, self.PATH, self._serve
        )
        self._network = network
        return self._endpoint

    def _serve(self) -> str:
        """Render the exposition, charging CPU time since the last serve."""
        now = self.kernel.clock.now_ns
        elapsed = now - self._last_serve_ns
        if elapsed > 0:
            busy_ns = int(elapsed * self.FOOTPRINT.cpu_fraction)
            self.kernel.scheduler.account_cpu_time(self._thread, busy_ns)
        self._last_serve_ns = now
        self.scrapes_served += 1
        return encode_registry(self.registry)

    def shutdown(self) -> None:
        """Stop the exporter: withdraw its route, exit its host process.

        A route already gone (or since taken by another exporter) is left
        alone: only this exporter's own endpoint is withdrawn.
        """
        endpoint, network = self._endpoint, self._network
        if network is not None:
            route = (endpoint.host, endpoint.port, endpoint.path)
            if network.lookup(*route) is endpoint:
                network.unregister(*route)
            self._network = None
        if not self.process.exited:
            self.kernel.exit_process(self.process)


class ModuleParamsExporter(Exporter):
    """A TEE exporter: a dumb reader over its driver's module parameters.

    Subclasses name the driver (:attr:`MODULE`), where it publishes its
    parameters, and one ``(family, parameter, help, is_counter)`` row per
    family; every row is re-read at scrape time.
    """

    PARAMS_DIR = ""
    PARAMS: Tuple[Tuple[str, str, str, bool], ...] = ()

    def __init__(self, kernel: Kernel, container_id: Optional[str] = None) -> None:
        if not kernel.has_module(self.MODULE):
            raise DeploymentError(
                f"{self.PROCESS_NAME} requires the {self.MODULE} driver "
                f"to be loaded"
            )
        super().__init__(kernel, container_id=container_id)
        registry = self.registry
        self._params = [
            ((registry.counter if is_counter else registry.gauge)(family, help_text),
             f"{self.PARAMS_DIR}/{param}")
            for family, param, help_text, is_counter in self.PARAMS
        ]
        registry.on_collect(self._refresh)

    def _refresh(self) -> None:
        for family, path in self._params:
            family.labels().set_to(float(self.kernel.vfs.read(path)))
