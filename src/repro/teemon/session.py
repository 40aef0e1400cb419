"""The monitoring session API.

A thin, user-facing layer over a deployment: query metrics, inspect
alerts, filter by process, render dashboards.  This is the API the
examples use and the closest analogue to "a user sitting in front of the
TEEMon frontend" from the paper's Figure 3 walkthrough.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.errors import DeploymentError
from repro.exporters.teemon_self import FEDERATION_LAG
from repro.pmag.alerting import AlertInstance
from repro.pmag.model import Series
from repro.pmv.render import render_dashboard
from repro.simkernel.clock import NANOS_PER_SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pmag.scrape import TargetHealth
    from repro.teemon.deploy import TeemonDeployment


class MonitoringSession:
    """Interactive view over a running deployment."""

    def __init__(self, deployment: "TeemonDeployment") -> None:
        self._deployment = deployment

    @property
    def now_ns(self) -> int:
        """Current virtual time."""
        return self._deployment.kernel.clock.now_ns

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, expr: str):
        """Instant query at the current time."""
        return self._deployment.engine.instant(expr, self.now_ns)

    def query_range(self, expr: str, window_s: float, step_s: float = 15.0) -> List[Series]:
        """Range query over the trailing window."""
        end = self.now_ns
        start = max(0, end - int(window_s * NANOS_PER_SEC))
        return self._deployment.engine.range_query(
            expr, start, end, int(step_s * NANOS_PER_SEC)
        )

    def syscall_rates(self, window: str = "1m") -> Dict[str, float]:
        """Per-syscall rates, the Figure 6 view."""
        vector = self.query(f"sum by (name) (rate(ebpf_syscalls_total[{window}]))")
        return {labels.get("name"): value for labels, value in vector}

    def epc_free_pages(self) -> Optional[float]:
        """Current free EPC pages (None before the first scrape)."""
        vector = self.query("sgx_epc_free_pages")
        return vector[0][1] if vector else None

    # ------------------------------------------------------------------
    # Scrape health
    # ------------------------------------------------------------------
    def target_health(self) -> Dict[str, "TargetHealth"]:
        """Health record per target URL (the frontend's targets page)."""
        manager = self._deployment.scrape_manager
        return {
            target.url: manager.health(target)
            for target in manager.current_targets()
        }

    def down_targets(self) -> List[str]:
        """URLs whose last scrape failed."""
        return [t.url for t in self._deployment.scrape_manager.down_targets()]

    def stale_targets(self) -> List[str]:
        """URLs that missed the staleness threshold of scrape intervals."""
        return [t.url for t in self._deployment.scrape_manager.stale_targets()]

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def wal_stats(self) -> Dict[str, int]:
        """The write-ahead log's counters for this process incarnation."""
        wal = self._deployment.wal
        if wal is None:
            raise DeploymentError(
                "durability is disabled; deploy with "
                "TeemonConfig(enable_wal=True)"
            )
        return {
            "records_total": wal.records_total,
            "flushes_total": wal.flushes_total,
            "checkpoints_total": wal.checkpoints_total,
            "segments_total": wal.segments_total,
            "unflushed_records": wal.unflushed_records,
        }

    def recovery_stats(self) -> Dict[str, float]:
        """Cumulative crash-recovery statistics of the deployment."""
        return dict(self._deployment.recovery_stats)

    def storage_stats(self) -> Dict[str, object]:
        """The store's series and samples per WAL partition."""
        return self._deployment.storage_stats()

    # ------------------------------------------------------------------
    # Federation
    # ------------------------------------------------------------------
    def remote_write_stats(self) -> Dict[str, object]:
        """Federation counters: the uplink client's queue/retry/ship
        totals and/or the receiver's dedup totals, whichever this
        deployment runs."""
        deployment = self._deployment
        client = deployment.remote_write_client
        receiver = deployment.remote_write_receiver
        if client is None and receiver is None:
            raise DeploymentError(
                "federation is disabled; deploy with "
                "TeemonConfig(remote_write_url=...) or "
                "TeemonConfig(remote_write_receiver=True)"
            )
        stats: Dict[str, object] = {}
        if client is not None:
            stats["client"] = client.stats()
        if deployment.remote_write_mirrors:
            stats["mirrors"] = [
                mirror.stats() for mirror in deployment.remote_write_mirrors
            ]
        if receiver is not None:
            stats["receiver"] = receiver.stats()
        return stats

    def federation_lag(self) -> Dict[str, float]:
        """Per-sender uplink lag right now: virtual time minus the
        newest sample timestamp this receiver applied from each."""
        receiver = self._deployment.remote_write_receiver
        if receiver is None:
            raise DeploymentError(
                "this deployment runs no remote-write receiver; deploy "
                "with TeemonConfig(remote_write_receiver=True)"
            )
        return receiver.lag_seconds(self.now_ns)

    def render_federation_timeline(self, window_s: Optional[float] = None,
                                   width: int = 72) -> str:
        """Per-sender federation-lag bars (the pmv federation view).

        Reads the ``teemon_federation_lag_seconds`` series the
        ``teemon_self`` target serves, grouped by sender, so it needs a
        receiver and self-telemetry.
        """
        deployment = self._deployment
        if deployment.remote_write_receiver is None:
            raise DeploymentError(
                "this deployment runs no remote-write receiver; deploy "
                "with TeemonConfig(remote_write_receiver=True)"
            )
        if deployment.self_exporter is None:
            raise DeploymentError(
                "self-telemetry is disabled; deploy with "
                "TeemonConfig(enable_self_telemetry=True)"
            )
        from repro.pmv.federation_view import render_federation_timeline

        end_ns = self.now_ns
        start_ns = (
            0 if window_s is None
            else max(0, end_ns - int(window_s * NANOS_PER_SEC))
        )
        lag_series = [
            (
                series.labels.get("sender") or "?",
                [(s.time_ns, s.value) for s in series.samples],
            )
            for series in deployment.tsdb.select_metric(
                FEDERATION_LAG, start_ns, end_ns
            )
        ]
        return render_federation_timeline(
            lag_series, start_ns, end_ns, width=width
        )

    # ------------------------------------------------------------------
    # Anomaly detection
    # ------------------------------------------------------------------
    def _detector(self):
        detector = self._deployment.anomaly_detector
        if detector is None:
            raise DeploymentError(
                "anomaly detection is disabled; deploy with "
                "TeemonConfig(enable_anomaly_detection=True)"
            )
        return detector

    def anomalies(self):
        """Every journalled anomaly event, oldest first."""
        return list(self._detector().journal)

    def anomaly_journal(self) -> List[str]:
        """The detector's canonical journal lines (byte-comparable)."""
        return [event.line() for event in self._detector().journal]

    def anomaly_stats(self) -> Dict[str, object]:
        """Detector run/detection counters."""
        return self._detector().stats()

    def render_anomaly_timeline(self, window_s: Optional[float] = None,
                                width: int = 72) -> str:
        """Per-kind anomaly timeline bars (the pmv anomaly view)."""
        detector = self._detector()
        from repro.pmv.anomaly_view import render_anomaly_timeline

        end_ns = self.now_ns
        start_ns = (
            0 if window_s is None
            else max(0, end_ns - int(window_s * NANOS_PER_SEC))
        )
        return render_anomaly_timeline(
            detector.journal, start_ns, end_ns, width=width
        )

    # ------------------------------------------------------------------
    # Alerting engine (pending->firing state machine + notifications)
    # ------------------------------------------------------------------
    def _require_alerting(self) -> "TeemonDeployment":
        if not self._deployment.config.enable_alerting:
            raise DeploymentError(
                "alerting is disabled; deploy with "
                "TeemonConfig(enable_alerting=True)"
            )
        return self._deployment

    def alerts(self):
        """Every active alert instance (pending and firing)."""
        deployment = self._require_alerting()
        instances = []
        for rule in deployment.alert_rules:
            instances.extend(rule.active())
        return instances

    def firing_alerts(self):
        """Alert instances currently in the firing state."""
        deployment = self._require_alerting()
        instances = []
        for rule in deployment.alert_rules:
            instances.extend(rule.firing())
        return instances

    def notification_stats(self) -> Dict[str, object]:
        """The notification router's per-receiver outcome counters."""
        deployment = self._require_alerting()
        return deployment.notification_router.stats()

    def rule_stats(self) -> Dict[str, object]:
        """Rule-engine statistics (eval time, conflicts, backfill)."""
        return self._deployment.rule_evaluator.stats()

    def render_alert_timeline(self, window_s: Optional[float] = None,
                              width: int = 72) -> str:
        """Per-alert timeline bars over the journal (the pmv alert view)."""
        deployment = self._require_alerting()
        from repro.pmv.alert_view import render_alert_timeline

        end_ns = self.now_ns
        start_ns = (
            0 if window_s is None
            else max(0, end_ns - int(window_s * NANOS_PER_SEC))
        )
        return render_alert_timeline(
            deployment.alert_journal.lines(), start_ns, end_ns, width=width
        )

    # ------------------------------------------------------------------
    # Alerts and dashboards
    # ------------------------------------------------------------------
    def active_alerts(self) -> List[AlertInstance]:
        """PMAN's currently firing alerts."""
        return self._deployment.analyzer.firing()

    def alert_log(self) -> List[str]:
        """PMAN's alert journal lines."""
        return self._deployment.analyzer.journal.lines()

    def set_process_filter(self, pid: int) -> None:
        """Apply the frontend's process filter to the SGX dashboard."""
        self._deployment.dashboards["sgx"].set_variable("process", str(pid))

    def render(self, dashboard: str = "sgx", width: int = 72) -> str:
        """Render one of the canned dashboards as text."""
        try:
            board = self._deployment.dashboards[dashboard]
        except KeyError:
            raise DeploymentError(
                f"no such dashboard: {dashboard!r}; "
                f"available: {sorted(self._deployment.dashboards)}"
            ) from None
        return render_dashboard(board, self._deployment.engine, self.now_ns, width=width)
