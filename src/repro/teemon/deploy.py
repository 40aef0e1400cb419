"""Single-host TEEMon deployment.

``deploy(kernel)`` stands up the full stack on one simulated host: the
enabled exporters (each in a Docker-style container), the aggregation
service (Prometheus-equivalent: TSDB + pull scraper), the analysis loop
and the three dashboards — and models the *monitoring system's own*
resource consumption, which is what Figure 4 measures:

========================  ==========  ============
component                 CPU (avg)   memory
========================  ==========  ============
sgx-exporter (TME)        0.2 %       20 MB
ebpf-exporter             0.8 %       45 MB
node-exporter             0.3 %       25 MB
cAdvisor                  3.0 %       95 MB
prometheus (PMAG)         1.0 %       400 MB
grafana (PMV)             0.5 %       95 MB
pman                      0.4 %       20 MB
========================  ==========  ============

Total 700 MB, Prometheus ~4x the next-largest component, cAdvisor the
most CPU-hungry at ~3 % — §6.2's Figure 4 numbers.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import DeploymentError
from repro.exporters import (
    HOST_EXPORTERS,
    EbpfExporter,
    TeeMetricsExporter,
)
from repro.exporters.base import Exporter, ExporterFootprint, MIB
from repro.exporters.teemon_self import SELF_JOB, Reader, TeemonSelfExporter
from repro.net.http import HttpNetwork
from repro.orchestration.container import ContainerImage, DockerRuntime
from repro.pmag.alerting import (
    AlertJournal,
    AlertingRule,
    Inhibitor,
    NotificationRouter,
    Receiver,
    Route,
    SilenceStore,
)
from repro.pmag.query.engine import QueryEngine
from repro.pmag.remote_write import (
    RemoteWriteClient,
    RemoteWriteReceiver,
    build_ship_filter,
    is_wire_safe,
    sequence_cursor_key,
    watermark_cursor_key,
)
from repro.pmag.rules import RecordingRule, RuleEvaluator, RuleGroup
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import (
    PartitionMap, RecoveryReport, open_log, recover_sharded,
)
from repro.pman.analyzer import PmanAnalyzer, default_sgx_rules
from repro.pmv.dashboards import (
    build_docker_dashboard,
    build_infra_dashboard,
    build_sgx_dashboard,
)
from repro.simkernel.clock import NANOS_PER_SEC
from repro.simkernel.disk import DiskCrashReport, SimDisk
from repro.simkernel.kernel import Kernel
from repro.teemon.config import TeemonConfig
from repro.teemon.session import MonitoringSession
from repro.trace import AnomalyDetector
from repro.trace.detect import ANOMALY_ACTIVE

#: Anomaly-detector cadence (window width of each baseline delta).
ANOMALY_INTERVAL_S = 30.0
#: Uplink flush cadence (collect-and-ship tick).
REMOTE_WRITE_INTERVAL_S = 5.0
#: Frames an uplink's send queue absorbs while its receiver is down before
#: the oldest are dropped (``teemon_remote_write_frames_dropped_total``).
REMOTE_WRITE_QUEUE_FRAMES = 256
#: How far back a resurrected monitor looks for pre-crash alert state.
ALERT_RESTORE_TOLERANCE_S = 3600.0

#: Footprints of the non-exporter components (Figure 4 calibration).
SERVICE_FOOTPRINTS: Dict[str, ExporterFootprint] = {
    "prometheus": ExporterFootprint(cpu_fraction=0.010, memory_bytes=400 * MIB),
    "grafana": ExporterFootprint(cpu_fraction=0.005, memory_bytes=95 * MIB),
    "pman": ExporterFootprint(cpu_fraction=0.004, memory_bytes=20 * MIB),
}


def default_recording_rules() -> RuleGroup:
    """Precomputed series backing the dashboards' hottest queries."""
    return RuleGroup("teemon-sgx", [
        RecordingRule("job:syscalls:rate1m",
                      "sum by (name) (rate(ebpf_syscalls_total[1m]))"),
        RecordingRule("job:epc_evictions:rate1m",
                      "rate(sgx_epc_pages_evicted_total[1m])"),
        RecordingRule("job:context_switches:rate1m",
                      "rate(ebpf_context_switches_total[1m])"),
        RecordingRule("job:page_faults:rate1m",
                      "rate(ebpf_page_faults_total[1m])"),
    ])


def default_alerting_rules() -> List[AlertingRule]:
    """The built-in TEEMon alert set: target health plus the two enclave
    anomaly signatures the fault catalog injects (EPC thrash, syscall
    storms)."""
    return [
        AlertingRule(
            "TargetDown", "up == 0", for_s=15.0,
            labels={"severity": "critical"},
        ),
        AlertingRule(
            "HighEpcEvictionRate",
            "rate(sgx_epc_pages_evicted_total[1m]) > 50",
            for_s=30.0, labels={"severity": "page"},
        ),
        AlertingRule(
            "SyscallStorm",
            "sum(rate(ebpf_syscalls_total[1m])) > 5000",
            for_s=30.0, labels={"severity": "warning"},
        ),
    ]


def _entrypoint(exporter_cls, options: Dict) -> Callable:
    """Container entrypoint starting ``exporter_cls`` with ``options``
    (bound now: the image keeps it for any later restart)."""
    return lambda kernel, container_id: exporter_cls(
        kernel, container_id=container_id, **options
    )


@dataclass
class ServiceProcess:
    """A non-exporter TEEMon service running on the host."""

    name: str
    footprint: ExporterFootprint
    process: object


class TeemonDeployment:
    """A running single-host TEEMon instance.

    The constructor separates *substrate* (exporter containers, service
    processes, the network, the durable disk — things that exist outside
    the monitoring process and survive its crash) from the *monitor*
    (TSDB, scraper, query engine, analyzer, dashboards — in-memory state
    of the aggregation process, rebuilt by :meth:`resurrect` after a
    :meth:`kill`).  :class:`~repro.teemon.session.MonitoringSession`
    dereferences the deployment's attributes on every call, so one
    session object stays valid across restarts.
    """

    def __init__(self, kernel: Kernel, config: TeemonConfig,
                 network: Optional[HttpNetwork] = None,
                 disk: Optional[SimDisk] = None) -> None:
        self.kernel = kernel
        self.config = config
        self.network = network if network is not None else HttpNetwork()
        self.docker = DockerRuntime(kernel)
        self.exporters: Dict[str, Exporter] = {}
        self.services: Dict[str, ServiceProcess] = {}
        self._running = False
        #: Handles of the running periodic schedule (see :meth:`start`).
        self._periodic: List = []
        #: Service-discovery sources registered via :meth:`add_discovery`.
        #: Substrate, not monitor memory: the cluster the callbacks watch
        #: outlives a monitor crash, so resurrection replays them onto the
        #: fresh scrape manager.
        self._discoverers: List = []
        #: Whether the monitor is currently dead (killed, not resurrected).
        self.crashed = False
        #: The durable medium backing the WAL (substrate: survives kills).
        self.disk: Optional[SimDisk] = disk
        if self.disk is None and config.enable_wal:
            self.disk = SimDisk()
        #: Cumulative recovery statistics across every resurrection of
        #: this deployment; served as ``teemon_recovery_*`` self-series.
        self.recovery_stats: Dict[str, float] = {
            "recoveries": 0,
            "records_replayed": 0,
            "records_quarantined": 0,
            "records_duplicate": 0,
            "segments_quarantined": 0,
            "checkpoints_quarantined": 0,
            "torn_tails": 0,
            "samples_lost": 0,
        }
        self.last_recovery = None
        #: Alerting substrate: the journal and silence store are operator
        #: state, not monitor memory — both survive kill/resurrect, which
        #: is what lets the chaos suite compare one journal across a
        #: whole crash-recover run.
        self.alert_journal = AlertJournal()
        self.silence_store = SilenceStore(config.alert_silences)

        self._create_exporters()
        substrate = set(vars(self))
        self._build_monitor()
        #: What :meth:`_build_monitor` made: the monitor's memory, which
        #: :meth:`resurrect` drops before it rebuilds.
        self._monitor_attributes = sorted(set(vars(self)) - substrate)
        self._create_services()
        self.session = MonitoringSession(self)

    def _build_monitor(self, tsdb: Optional[Tsdb] = None) -> None:
        """(Re)create the monitoring process's in-memory objects.

        ``tsdb`` is the recovered store on resurrection, None on first
        build (an empty one is then made; ``storage_shards`` partitions
        its WAL, not the store).  Substrate objects
        (exporters, services, network, disk) are untouched; everything
        the aggregation process holds in memory is built fresh — which
        is exactly what a process restart does.
        """
        kernel = self.kernel
        config = self.config
        if tsdb is None:
            tsdb = Tsdb(retention_ns=self._retention_ns())
        self.tsdb = tsdb
        #: Label set -> WAL partition, shared by the log and the
        #: per-partition storage telemetry.
        self.partitions = PartitionMap(config.storage_shards)
        self.wal = None
        if config.enable_wal:
            self.wal = open_log(
                self.disk, config.wal_dir, self.partitions,
                config.wal_flush_records,
            )
            tsdb.attach_wal(self.wal)
        # Anomaly detection over the TSDB's enclave health series with
        # rolling baselines.  Rebuilt per monitor incarnation (its journal
        # is monitor memory — the determinism witness covers one run).
        self.anomaly_detector: Optional[AnomalyDetector] = None
        if config.enable_anomaly_detection:
            self.anomaly_detector = AnomalyDetector(
                self.tsdb, instance=kernel.hostname,
            )
        self.scrape_manager = ScrapeManager(
            kernel.clock, self.network, self.tsdb,
            interval_ns=int(config.scrape_interval_s * NANOS_PER_SEC),
            rng=kernel.rng,
        )
        for job, exporter in self.exporters.items():
            self.scrape_manager.add_target(
                ScrapeTarget(job=job, instance=kernel.hostname, url=exporter.url)
            )
        for discoverer in self._discoverers:
            self.scrape_manager.add_discovery(discoverer)
        # Federation: the receiver ingests other monitors' remote-write
        # frames into this TSDB; the client(s) ship this TSDB's samples
        # upstream (the primary plus one mirror per extra URL — an HA
        # pair at the next tier up).  All monitor memory — rebuilt per
        # incarnation; durable positions are re-seeded by resurrect().
        # A deployment with both is a *relay*: the receiver feeds the
        # clients, which re-stamp everything under this monitor's own
        # sender identity, epoch and sequence numbering.
        sender = config.remote_write_source or kernel.hostname
        self.remote_write_receiver: Optional[RemoteWriteReceiver] = None
        if config.remote_write_receiver:
            self.remote_write_receiver = RemoteWriteReceiver(
                self.tsdb, identity=sender
            )
            self.remote_write_receiver.expose(self.network, kernel.hostname)
        self.remote_write_client: Optional[RemoteWriteClient] = None
        self.remote_write_mirrors: List[RemoteWriteClient] = []
        if config.remote_write_url is not None:
            if not is_wire_safe(sender):
                raise DeploymentError(
                    f"hostname {sender!r} is not a wire-safe remote-write "
                    f"sender (no spaces or newlines); set remote_write_source"
                )
            ship_filter = build_ship_filter(config.federation_mode)

            def uplink(url: str, cursor_name: str) -> RemoteWriteClient:
                return RemoteWriteClient(
                    kernel.clock, self.network, self.tsdb,
                    url=url,
                    source=sender,
                    wal=self.wal,
                    max_frame_samples=config.remote_write_frame_samples,
                    queue_max_frames=REMOTE_WRITE_QUEUE_FRAMES,
                    rng=kernel.rng,
                    priority=config.remote_write_priority,
                    tier=config.remote_write_tier,
                    ship_filter=ship_filter,
                    cursor_name=cursor_name,
                )

            self.remote_write_client = uplink(config.remote_write_url, sender)
            self.remote_write_mirrors = [
                uplink(url, f"{sender}:mirror-{index}")
                for index, url in enumerate(config.remote_write_mirror_urls)
            ]
            if self.remote_write_receiver is not None:
                for client in self._remote_write_clients():
                    self.remote_write_receiver.attach_relay(client)
        self.engine = QueryEngine(self.tsdb)
        # Alerting: cloned per build so a resurrected monitor starts from
        # explicitly restored state, never leftover in-memory state.
        self.notification_router: Optional[NotificationRouter] = None
        self.alert_rules: List[AlertingRule] = []
        alert_sink = None
        if config.enable_alerting:
            receivers = list(config.alert_receivers)
            route = config.alert_route
            if route is None:
                if not receivers:
                    receivers = [Receiver("default")]
                route = Route(receiver=receivers[0].name)
            self.notification_router = NotificationRouter(
                kernel.clock, self.network, route, receivers,
                rng=kernel.rng, journal=self.alert_journal,
                silences=self.silence_store,
                inhibitor=Inhibitor(list(config.alert_inhibit_rules)),
            )
            alert_sink = self.notification_router.handle
            specs = list(config.alert_rules) or default_alerting_rules()
            if config.enable_anomaly_detection and not config.alert_rules:
                # Page on the detector's verdicts: the series it writes
                # make anomalies alertable like any other signal.
                specs.append(AlertingRule(
                    "AnomalyDetected", f"{ANOMALY_ACTIVE} == 1",
                    for_s=0.0, labels={"severity": "critical"},
                ))
            self.alert_rules = [rule.clone() for rule in specs]
        pman_rules = default_sgx_rules() + list(config.extra_rules)
        # Both groups write ALERTS/ALERTS_FOR_STATE into one TSDB, keyed by
        # alert name: a name must be unique across the two.
        names = Counter(rule.name for rule in pman_rules + self.alert_rules)
        duplicates = sorted(name for name, count in names.items() if count > 1)
        if duplicates:
            raise DeploymentError(
                f"duplicate alert rule names: {', '.join(duplicates)}"
            )
        self.rule_evaluator = RuleEvaluator(
            kernel.clock, self.engine, self.tsdb,
            wal=self.wal, alert_sink=alert_sink,
        )
        if config.enable_recording_rules:
            self.rule_evaluator.add_group(default_recording_rules())
        if config.enable_alerting:
            self.rule_evaluator.add_group(RuleGroup(
                "teemon-alerts", self.alert_rules,
                interval_ns=int(config.alert_eval_interval_s * NANOS_PER_SEC),
            ))
        self.analyzer = PmanAnalyzer(
            kernel.clock, self.engine, self.tsdb,
            rules=pman_rules,
            window_ns=int(config.analysis_window_s * NANOS_PER_SEC),
            every_ns=int(config.analysis_every_s * NANOS_PER_SEC),
        )
        self.dashboards = {
            "sgx": build_sgx_dashboard(),
            "docker": build_docker_dashboard(),
            "infra": build_infra_dashboard(),
        }
        for dashboard in self.dashboards.values():
            self.analyzer.add_sink(dashboard.alert_sink())
        self.self_exporter: Optional[TeemonSelfExporter] = None
        if config.enable_self_telemetry:
            self.self_exporter = TeemonSelfExporter(
                kernel.hostname, self._self_sources(),
            )
            self.self_exporter.expose(self.network)
            self.scrape_manager.add_target(ScrapeTarget(
                job=SELF_JOB, instance=kernel.hostname,
                url=self.self_exporter.url,
            ))

    def _retention_ns(self) -> int:
        return int(self.config.retention_hours * 3600 * NANOS_PER_SEC)

    def storage_stats(self) -> Dict[str, object]:
        """The store's series and samples per WAL partition
        (``storage_shards`` of them): the ``teemon_storage_*`` shape."""
        tsdb, partitions = self.tsdb, self.partitions
        count = partitions.count
        if count == 1:
            return {"shards": 1, "per_shard": [
                {"series": tsdb.series_count(), "samples": tsdb.sample_count()}]}
        series, samples = [0] * count, [0] * count
        for labels, storage in tsdb.series_items():
            index = partitions[labels]
            series[index] += 1
            samples[index] += storage.sample_count
        return {"shards": count, "per_shard": [
            {"series": n, "samples": m} for n, m in zip(series, samples)]}

    def _self_sources(self) -> Dict[str, Reader]:
        """Readers of what this monitor runs, by ``teemon_self`` source
        name (see :data:`~repro.exporters.teemon_self.FAMILIES`)."""
        engine = self.engine
        sources: Dict[str, Reader] = {
            "scrape": self.scrape_manager.self_stats,
            "storage": lambda: {"shards": self.partitions.count},
            "shard": lambda: {
                (str(index),): row for index, row
                in enumerate(self.storage_stats()["per_shard"])
            },
            "query_cache": lambda: vars(engine.cache_stats()),
        }
        if self.wal is not None:
            sources["wal"] = lambda: self.session.wal_stats()
            sources["recovery"] = lambda: self.recovery_stats
        if self._rules_active():
            sources["rules"] = self.rule_evaluator.stats
        if self.notification_router is not None:
            router = self.notification_router
            sources["alerts"] = self.alerting_stats
            sources["notifications"] = lambda: {
                key: {"count": count}
                for key, count in sorted(router.counters.items())
            }
        clients = self._remote_write_clients()
        if clients:
            sources["uplink"] = lambda: {
                (client.cursor_name,): client.stats() for client in clients
            }
        receiver = self.remote_write_receiver
        if receiver is not None:
            clock = self.kernel.clock
            sources["receiver"] = receiver.stats
            sources["lag"] = lambda: {
                (sender,): {"seconds": lag}
                for sender, lag in receiver.lag_seconds(clock.now_ns).items()
            }
        return sources

    # ------------------------------------------------------------------
    def _create_exporters(self) -> None:
        """One container per enabled catalog exporter, in catalog order."""
        config = self.config
        if not config.enable_exporters:
            return
        for exporter_cls in HOST_EXPORTERS:
            if exporter_cls is TeeMetricsExporter and not config.enable_tme:
                continue
            options = {"config": config.ebpf} if exporter_cls is EbpfExporter else {}
            image = ContainerImage(
                name=exporter_cls.PROCESS_NAME,
                entrypoint=_entrypoint(exporter_cls, options),
            )
            exporter = self.docker.run(image, name=image.name).component
            exporter.expose(self.network)
            self.exporters[exporter_cls.JOB] = exporter

    def _create_services(self) -> None:
        for name, footprint in SERVICE_FOOTPRINTS.items():
            process = self.kernel.spawn_process(name, container_id=f"teemon/{name}")
            process.rss_bytes = footprint.memory_bytes
            self.services[name] = ServiceProcess(
                name=name, footprint=footprint, process=process
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin scraping, analysis, and service CPU accounting."""
        if self._running:
            raise DeploymentError("deployment already started")
        if self.crashed:
            raise DeploymentError("deployment crashed; resurrect() it first")
        self.scrape_manager.start()
        self.analyzer.start()
        if self._rules_active():
            self.rule_evaluator.start()
        self._running = True
        self._schedule_periodic()

    def add_discovery(self, discoverer) -> None:
        """Register a service-discovery source durably.

        Unlike registering straight on the scrape manager, sources added
        here survive :meth:`kill`/:meth:`resurrect` — the cluster a
        discoverer watches is substrate, so the rebuilt monitor should
        keep watching it.
        """
        self._discoverers.append(discoverer)
        self.scrape_manager.add_discovery(discoverer)

    def stop(self) -> None:
        """Stop scraping and analysis gracefully (exporters stay
        resident; the WAL is flushed so a graceful stop loses nothing)."""
        if not self._running:
            raise DeploymentError("deployment not running")
        self._halt(ship_pending=True)
        if self.wal is not None:
            self.wal.flush()

    def _halt(self, ship_pending: bool) -> None:
        """Stop every monitor timer.  A graceful stop first ships what
        the uplinks have ingested so far; a kill lets queued frames die
        with the process."""
        self.scrape_manager.stop()
        self.analyzer.stop()
        if self._rules_active():
            self.rule_evaluator.stop()
        if self.notification_router is not None:
            self.notification_router.stop()
        for client in self._remote_write_clients():
            if ship_pending:
                client.flush()
            client.stop()
        self._running = False
        for timer in self._periodic:
            timer.cancel()
        self._periodic = []

    def _remote_write_clients(self) -> List[RemoteWriteClient]:
        """Every uplink client: the primary, then the mirrors in order."""
        if self.remote_write_client is None:
            return []
        return [self.remote_write_client] + self.remote_write_mirrors

    def _rules_active(self) -> bool:
        """Whether the rule evaluator runs (recording rules or alerting)."""
        return (self.config.enable_recording_rules
                or self.config.enable_alerting)

    def alerting_stats(self) -> Dict[str, int]:
        """Alert instances now firing and pending, counted."""
        firing = pending = 0
        for rule in self.alert_rules:
            for instance in rule.active():
                if instance.state == "firing":
                    firing += 1
                else:
                    pending += 1
        return {"firing": firing, "pending": pending}

    # ------------------------------------------------------------------
    # Crash and recovery
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Die abruptly: every monitor timer stops, nothing is flushed.

        Models a process crash (SIGKILL, OOM, power loss of the
        aggregation host).  Unflushed WAL records and every in-memory
        structure are simply gone; the substrate — exporter containers,
        the network, the disk — keeps running.  Pair with a
        :meth:`~repro.simkernel.disk.SimDisk.crash` of the disk to model
        whole-host power loss, then :meth:`resurrect`.
        """
        if not self._running:
            raise DeploymentError("cannot kill a deployment that is not running")
        if self.wal is not None and self.wal.group_open:
            # Its staged samples are counted as logged but are on no
            # medium: a crash here would lose them without a trace.
            raise DeploymentError("cannot kill inside a WAL commit group")
        self._halt(ship_pending=False)
        # A dead process serves nothing: withdraw its endpoints, so
        # leaves fail fast and spill to their queues and no route keeps
        # the dead incarnation reachable.
        if self.remote_write_receiver is not None:
            self.remote_write_receiver.withdraw(
                self.network, self.kernel.hostname
            )
        if self.self_exporter is not None:
            self.self_exporter.withdraw()
        self.crashed = True

    def resurrect(self, crash_report: Optional[DiskCrashReport] = None,
                  plan=None) -> RecoveryReport:
        """Restart the monitor after :meth:`kill`, recovered from its WAL.

        In the order a process restart frees and rebuilds memory: drop
        every in-memory object of the dead incarnation and collect it,
        replay the WAL (:func:`~repro.pmag.wal.recover_sharded`, with
        ``crash_report`` as the loss oracle and ``plan`` journalling
        quarantines), then build the monitor around the recovered store.
        Scrape-manager state is seeded from the recovered series so
        ``up``/staleness/flap semantics are correct across the restart,
        the report is folded into the cumulative ``teemon_recovery_*``
        statistics, a fresh checkpoint makes the recovery itself
        durable, and scraping starts again.  Returns the report.
        """
        if not self.crashed:
            raise DeploymentError("resurrect() requires a killed deployment")
        if self.disk is None:
            raise DeploymentError(
                "resurrect() replays the WAL; deploy with "
                "TeemonConfig(enable_wal=True)")
        # The dead incarnation is cyclic garbage (exporter callbacks,
        # registry, rule closures) pinning its store, WAL and codec
        # caches: drop and collect it before the replay builds the new
        # store, so the two are never resident at once.
        for name in self._monitor_attributes:
            setattr(self, name, None)
        gc.collect()
        config = self.config
        tsdb, report = recover_sharded(
            self.disk, config.wal_dir, config.storage_shards,
            retention_ns=self._retention_ns(),
            crash_report=crash_report, plan=plan,
        )
        self.last_recovery = report
        for name in self.recovery_stats:
            if name != "recoveries":  # the rest are report counters
                self.recovery_stats[name] += getattr(report, name)
        self.recovery_stats["recoveries"] += 1
        self.crashed = False
        self._build_monitor(tsdb=tsdb)
        self._seed_scrape_state()
        cursors = dict(report.cursors)
        if cursors:
            # Resume recording rules where the dead monitor stopped: the
            # outage is backfilled from the last recorded step, and the
            # cursors go back onto the fresh WAL so the *next* crash
            # resumes too.
            self.rule_evaluator.seed_cursors(cursors)
            if self.wal is not None:
                self.wal.record_cursors(cursors)
        for client in self._remote_write_clients():
            # Resume each uplink from its last *acked* position (cursors
            # are keyed per client: the primary under the sender name,
            # mirrors under their own).  The receivers deduplicate
            # whatever the dead incarnation shipped past the last
            # persisted cursor.
            client.seed(
                cursors.get(watermark_cursor_key(client.cursor_name)),
                cursors.get(sequence_cursor_key(client.cursor_name)),
            )
        if self.config.enable_alerting:
            now_ns = self.kernel.clock.now_ns
            tolerance_ns = int(ALERT_RESTORE_TOLERANCE_S * NANOS_PER_SEC)
            restored = []
            for rule in self.alert_rules:
                restored.extend(rule.restore(self.tsdb, now_ns, tolerance_ns))
            if restored and self.notification_router is not None:
                self.notification_router.restore_active(restored, now_ns)
        if self.wal is not None:
            # The recovery checkpoint: replayed segments are truncated and
            # the recovered state itself becomes the new durable baseline.
            self.wal.checkpoint(self.tsdb)
        self.start()
        return report

    def _seed_scrape_state(self) -> None:
        """Rebuild scraper health from the recovered TSDB (its counters
        start from zero, as every incarnation's do)."""
        manager = self.scrape_manager
        for target in manager.current_targets():
            identity = target.identity()
            up_sample = self.tsdb.latest("up", **identity)
            if up_sample is None:
                continue  # never scraped before the crash
            stale_sample = self.tsdb.latest("scrape_target_stale", **identity)
            manager.seed_target_state(
                target,
                up=up_sample.value >= 1.0,
                stale=stale_sample is not None and stale_sample.value >= 1.0,
            )
        # Targets retired by discovery *before* the crash are absent from
        # current_targets(), but their set staleness markers survive in
        # the recovered TSDB.  Reseed the manager's removed-stale set
        # from them so a later rejoin still clears its marker.
        removed_stale = set()
        for series in self.tsdb.select_metric(
            "scrape_target_stale", 0, self.kernel.clock.now_ns
        ):
            if series.samples and series.samples[-1].value >= 1.0:
                removed_stale.add((
                    series.labels.get("job"), series.labels.get("instance"),
                ))
        if removed_stale:
            manager.seed_removed_stale(removed_stale)

    def _schedule_periodic(self) -> None:
        """The monitor's timed work beyond scraping, analysis and rules.

        Started after those three, in this order — which is the order
        ticks sharing a virtual instant run in:

        * service accounting (:meth:`_account_services`), every scrape
          interval;
        * WAL flush, every ``wal_flush_every_s`` (default: the scrape
          interval).  The cadence is the loss bound: a crash destroys at
          most the records appended since the previous flush, and
          trailing the scrape tick means a cycle's samples land before
          the flush that makes them durable;
        * WAL checkpoint, every ``checkpoint_every_s``;
        * anomaly detection, every :data:`ANOMALY_INTERVAL_S` (one tick
          is one baseline window);
        * remote-write flush, every :data:`REMOTE_WRITE_INTERVAL_S`,
          first at ``interval + (priority + 2*tier) * stagger``: HA
          replicas with distinct priorities never flush at one instant,
          so the receiver's first-frame-wins dedup has a deterministic
          winner, and a relay tier flushes after the tier below has
          delivered.  Trailing the scrape tick, each cycle's samples are
          ingested before the collect that ships them; the primary and
          its mirrors flush back-to-back, primary first.
        """
        config = self.config
        clock = self.kernel.clock

        def every(interval_s: float, callback, stagger_ns: int = 0) -> None:
            interval_ns = int(interval_s * NANOS_PER_SEC)
            self._periodic.append(clock.call_every(
                interval_ns, callback, interval_ns + stagger_ns
            ))

        every(config.scrape_interval_s, self._account_services)
        if self.wal is not None:
            flush_every_s = config.wal_flush_every_s
            if flush_every_s is None:
                flush_every_s = config.scrape_interval_s
            every(flush_every_s, self.wal.flush)
            every(config.checkpoint_every_s,
                  lambda: self.wal.checkpoint(self.tsdb))
        if self.anomaly_detector is not None:
            every(ANOMALY_INTERVAL_S,
                  lambda: self.anomaly_detector.run(clock.now_ns))
        if self.remote_write_client is not None:
            every(REMOTE_WRITE_INTERVAL_S, self._flush_uplinks,
                  self.remote_write_client.stagger_offset_ns)

    def _flush_uplinks(self) -> None:
        now_ns = self.kernel.clock.now_ns
        for client in self._remote_write_clients():
            client.flush(now_ns)

    def _account_services(self) -> None:
        """Charge the aggregation/visualisation services their CPU share.

        Exporters charge CPU when they serve scrapes; the Prometheus,
        Grafana and PMAN processes do their work continuously, so a
        periodic tick charges each its calibrated fraction — this is the
        CPU the Figure-4 experiment measures.
        """
        interval_ns = int(self.config.scrape_interval_s * NANOS_PER_SEC)
        for service in self.services.values():
            if service.process.exited:
                continue
            thread = next(iter(service.process.threads.values()))
            self.kernel.scheduler.account_cpu_time(
                thread, int(interval_ns * service.footprint.cpu_fraction)
            )

    def shutdown(self) -> None:
        """Full teardown: stop everything, exit all TEEMon processes and
        withdraw the self-telemetry endpoint."""
        if self._running:
            self.stop()
        for container in self.docker.containers(running_only=True):
            container.stop()
        for service in self.services.values():
            if not service.process.exited:
                self.kernel.exit_process(service.process)
        if self.self_exporter is not None:
            self.self_exporter.withdraw()


def deploy(
    kernel: Kernel,
    config: Optional[TeemonConfig] = None,
    network: Optional[HttpNetwork] = None,
    start: bool = True,
    disk: Optional[SimDisk] = None,
) -> TeemonDeployment:
    """Deploy TEEMon on a host; returns the running deployment."""
    deployment = TeemonDeployment(
        kernel, config or TeemonConfig(), network=network, disk=disk
    )
    if start:
        deployment.start()
    return deployment
