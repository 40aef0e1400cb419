"""Deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import DeploymentError
from repro.exporters.ebpf_exporter import EbpfExporterConfig
from repro.pmag.alerting import AlertingRule
from repro.pmag.remote_write import is_wire_safe
from repro.pmag.scrape import SCRAPE_TIMEOUT_S


@dataclass(frozen=True)
class TeemonConfig:
    """Tunable knobs of a TEEMon deployment.

    Defaults follow the paper: 5-second scrape interval (§5), all four
    exporters on, PMAN analysing every minute over five-minute windows.
    """

    scrape_interval_s: float = 5.0
    retention_hours: float = 24.0
    enable_tme: bool = True
    ebpf: EbpfExporterConfig = field(default_factory=EbpfExporterConfig)
    analysis_window_s: float = 300.0
    analysis_every_s: float = 60.0
    #: PMAN threshold rules evaluated after :func:`default_sgx_rules
    #: <repro.pman.analyzer.default_sgx_rules>`.
    extra_rules: Sequence[AlertingRule] = ()
    #: Evaluate the default recording-rule group (precomputed dashboard
    #: series such as ``job:syscalls:rate1m``).
    enable_recording_rules: bool = True
    #: Run the anomaly detector (EPC thrash, AEX storms, syscall-latency
    #: outliers) on a virtual-clock cadence.  Requires nothing else.  Off
    #: by default.
    enable_anomaly_detection: bool = False
    #: Register the ``teemon_self`` scrape target serving the monitor's
    #: own metrics.  Requires nothing else.
    enable_self_telemetry: bool = True
    #: Write every accepted sample through to a write-ahead log on the
    #: deployment's simulated disk (crash-safe storage).  Off by default:
    #: durability-off must stay free.
    enable_wal: bool = False
    #: Directory prefix for WAL segments and checkpoints on the disk.
    wal_dir: str = "wal"
    #: Flush (fsync) the live segment every N records (0 = timed flushes
    #: only).  The unflushed window bounds crash data loss.
    wal_flush_records: int = 0
    #: Flush the WAL on the virtual clock this often; ``None`` defaults
    #: to the scrape interval (loss bounded by one scrape of samples).
    wal_flush_every_s: Optional[float] = None
    #: Take a checkpoint (snapshot + segment truncation) this often.
    checkpoint_every_s: float = 300.0
    #: WAL partitions: the store is one :class:`~repro.pmag.tsdb.Tsdb`
    #: index, and with the WAL on each series is logged in the
    #: ``shard-NN`` directory its stable label fingerprint picks.
    storage_shards: int = 1
    #: Partition writes run in the calling thread: 0 is the only value.
    storage_executor_workers: int = 0
    #: Evaluate alerting rules and route notifications.  Off by default:
    #: alerting-off must cost nothing.
    enable_alerting: bool = False
    #: Alerting rule-group cadence.
    alert_eval_interval_s: float = 15.0
    #: :class:`~repro.pmag.alerting.AlertingRule` specs to evaluate.
    #: Empty with alerting on means the built-in TEEMon rule set
    #: (target-down, EPC-eviction, syscall-storm).
    alert_rules: Sequence[object] = ()
    #: Routing tree root (:class:`~repro.pmag.alerting.Route`); ``None``
    #: routes everything to a journal-only ``default`` receiver.
    alert_route: Optional[object] = None
    #: :class:`~repro.pmag.alerting.Receiver` destinations.
    alert_receivers: Sequence[object] = ()
    #: Pre-configured silences and inhibition rules.
    alert_silences: Sequence[object] = ()
    alert_inhibit_rules: Sequence[object] = ()
    #: Build the per-node exporters and register their scrape targets.
    #: Off for monitor-only tiers — a federation *global* monitor ingests
    #: exclusively via remote-write and scrapes nothing locally, and an
    #: HA replica shares its exporter substrate with its peer.
    enable_exporters: bool = True
    #: Remote-write uplink: ship everything this monitor ingests to the
    #: receiver at this URL as batched, compressed frames on the virtual
    #: clock.  ``None`` (the default) disables the client entirely.
    remote_write_url: Optional[str] = None
    #: Sender identity stamped into every frame header; the receiver
    #: tracks sequence numbers per source.  Defaults to the hostname.
    remote_write_source: Optional[str] = None
    #: Samples per frame; a flush ships as many frames as needed.
    remote_write_frame_samples: int = 500
    #: Replica priority: staggers this monitor's remote-write flush tick
    #: by ``priority * 1ms`` so an HA pair shipping the same samples has
    #: a deterministic winner (the lower priority lands first; the
    #: loser's duplicates are rejected sample-by-sample upstream).
    remote_write_priority: int = 0
    #: Run a :class:`~repro.pmag.remote_write.RemoteWriteReceiver` and
    #: expose it on this deployment's network at
    #: ``http://{hostname}:9009/api/v1/write``.
    remote_write_receiver: bool = False
    #: Additional receiver URLs shipped the same samples (an HA pair at
    #: the next tier up: primary = replica 0, mirrors = the rest).  Each
    #: mirror gets its own client with its own durable cursors; the
    #: receivers deduplicate independently.  Requires
    #: ``remote_write_url``.
    remote_write_mirror_urls: Sequence[str] = ()
    #: Federation tier of this monitor's uplink: 0 for a leaf, 1 for a
    #: region relay, 2 for a relay of relays, …  Staggers the flush tick
    #: by ``2ms * tier`` (beyond any HA-priority stagger) so at a shared
    #: virtual instant a relay collects only *after* the tier below has
    #: delivered — steady-state frames then ship exactly once per tier.
    #: :class:`~repro.teemon.federation.FederationTopology` sets this
    #: from the declared hierarchy.
    remote_write_tier: int = 0
    #: What the uplink ships.  ``"raw"`` (the default) ships every
    #: series this monitor ingests.  ``"aggregate"`` is the leaf-side
    #: recording-rule pushdown: ship only rule outputs (colon-namespaced
    #: names) plus target liveness (``up``) and the monitor's own
    #: ``teemon_*`` telemetry — the global tier still answers
    #: aggregate-safe panels bit-identically, at a fraction of the
    #: uplink bytes.
    federation_mode: str = "raw"

    def __post_init__(self) -> None:
        if self.scrape_interval_s <= SCRAPE_TIMEOUT_S:
            raise DeploymentError(
                f"scrape interval must exceed the {SCRAPE_TIMEOUT_S:g} s "
                f"scrape timeout"
            )
        if self.retention_hours <= 0:
            raise DeploymentError("retention must be positive")
        if self.analysis_every_s <= 0 or self.analysis_window_s <= 0:
            raise DeploymentError("analysis cadence/window must be positive")
        if self.wal_flush_records < 0:
            raise DeploymentError("wal_flush_records cannot be negative")
        if self.wal_flush_every_s is not None and self.wal_flush_every_s <= 0:
            raise DeploymentError("wal_flush_every_s must be positive")
        if self.checkpoint_every_s <= 0:
            raise DeploymentError("checkpoint_every_s must be positive")
        if not self.wal_dir:
            raise DeploymentError("wal_dir must be a non-empty prefix")
        if self.alert_eval_interval_s <= 0:
            raise DeploymentError("alert_eval_interval_s must be positive")
        if self.storage_shards < 1:
            raise DeploymentError("storage_shards must be >= 1")
        if self.storage_executor_workers != 0:
            raise DeploymentError(
                "storage_executor_workers must be 0: partition writes run "
                "in the calling thread"
            )
        if self.remote_write_frame_samples < 1:
            raise DeploymentError("remote_write_frame_samples must be >= 1")
        if self.remote_write_priority < 0:
            raise DeploymentError("remote_write_priority cannot be negative")
        if self.remote_write_tier < 0:
            raise DeploymentError("remote_write_tier cannot be negative")
        if self.remote_write_source and not is_wire_safe(
                self.remote_write_source):
            raise DeploymentError(
                f"remote_write_source not wire-safe (no spaces or "
                f"newlines): {self.remote_write_source!r}"
            )
        if self.remote_write_mirror_urls and self.remote_write_url is None:
            raise DeploymentError(
                "remote_write_mirror_urls requires remote_write_url"
            )
        if any(not url for url in self.remote_write_mirror_urls):
            raise DeploymentError("empty remote_write mirror URL")
        if self.federation_mode not in ("raw", "aggregate"):
            raise DeploymentError(
                f"federation_mode must be 'raw' or 'aggregate': "
                f"{self.federation_mode!r}"
            )
