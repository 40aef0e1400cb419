"""Deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import DeploymentError
from repro.exporters.ebpf_exporter import EbpfExporterConfig
from repro.pmag.alerting import AlertingRule
from repro.pmag.remote_write import is_wire_safe
from repro.pmag.scrape import SCRAPE_TIMEOUT_S
from repro.simkernel.clock import NANOS_PER_SEC


@dataclass(frozen=True)
class TeemonConfig:
    """Tunable knobs of a TEEMon deployment.

    Defaults follow the paper: 5-second scrape interval (§5), all four
    exporters on, PMAN analysing every minute over five-minute windows.
    """

    scrape_interval_s: float = 5.0
    retention_hours: float = 24.0
    enable_tme: bool = True
    enable_ebpf: bool = True
    enable_node_exporter: bool = True
    enable_cadvisor: bool = True
    ebpf: EbpfExporterConfig = field(default_factory=EbpfExporterConfig)
    analysis_window_s: float = 300.0
    analysis_every_s: float = 60.0
    #: PMAN threshold rules evaluated after :func:`default_sgx_rules
    #: <repro.pman.analyzer.default_sgx_rules>`.
    extra_rules: Sequence[AlertingRule] = ()
    #: Evaluate the default recording-rule group (precomputed dashboard
    #: series such as ``job:syscalls:rate1m``).
    enable_recording_rules: bool = True
    #: Trace the pipeline itself (scrapes, queries, rule evaluation) on
    #: the virtual clock.  Off by default: the no-op tracer keeps the
    #: query hot path untouched.
    enable_tracing: bool = False
    #: Bound of the in-memory trace store (whole traces, FIFO-evicted).
    trace_max_traces: int = 256
    #: Head-sampling probability: the seeded keep/drop decision made at
    #: root-span creation and propagated via the traceparent flags.
    #: ``None`` disables head sampling (every trace is recorded — the
    #: pre-sampling behaviour); ``1.0`` runs the sampling machinery with
    #: every trace kept.
    trace_sampling_probability: Optional[float] = None
    #: Tail sampling: judge each completed trace against keep rules
    #: (fault events, retries, errors, slow spans) and drop the boring
    #: ones.  Off by default — the store keeps everything.
    trace_tail_sampling: bool = False
    #: Tail rule: spans at least this slow (modelled time) keep their
    #: trace regardless of anything else.
    trace_slow_span_ms: float = 250.0
    #: Bound of the tail sampler's pending buffer (whole traces).
    trace_pending_max_traces: int = 64
    #: Per-span-name duration histograms (with exemplars) in the
    #: ``teemon_self`` exposition.  They are the expensive half of trace
    #: self-telemetry — ~10 bucket series per span name re-ingested every
    #: scrape — so the resolved default (``None``) enables them only when
    #: every trace is recorded: a head-sampled duration distribution is
    #: biased and not worth the exposition weight.  Set ``True``/``False``
    #: to force either way.
    trace_span_metrics: Optional[bool] = None
    #: Run the trace-driven anomaly detector (EPC thrash, AEX storms,
    #: syscall-latency outliers) on a virtual-clock cadence.  Requires
    #: nothing else, but joins kept traces as evidence when tracing is
    #: on.  Off by default.
    enable_anomaly_detection: bool = False
    #: Detector cadence (window width of each baseline delta).
    anomaly_interval_s: float = 30.0
    #: Register the ``teemon_self`` scrape target serving the scraper's
    #: and tracer's own metrics.  Requires nothing else; with tracing on
    #: its histogram samples carry trace exemplars.
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
    #: Storage shards: 1 builds the plain :class:`~repro.pmag.tsdb.Tsdb`
    #: (the exact pre-sharding path), >1 builds a
    #: :class:`~repro.pmag.storage.ShardedTsdb` routing each series by
    #: its stable label fingerprint.  With the WAL on, each shard gets
    #: its own log directory and replays independently on recovery.
    storage_shards: int = 1
    #: Shard fan-out runs in the calling thread: 0 is the only value.
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
    #: Width of one storage block; compaction horizons and (with a block
    #: policy active) retention cuts align to multiples of it.
    block_range_s: float = 7200.0
    #: Fold raw samples older than this into downsampled rollup buckets,
    #: dropping the raw chunks.  ``None`` (the default) disables the
    #: block/downsample lifecycle entirely.
    downsample_after_s: Optional[float] = None
    #: Rollup bucket width.  Range queries whose step is at least this
    #: are served from the downsampled buckets.
    downsample_resolution_s: float = 300.0
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

    def span_metrics_enabled(self) -> bool:
        """Resolved ``trace_span_metrics``: explicit value if set, else
        on only when every trace is recorded (no head sampling)."""
        if self.trace_span_metrics is not None:
            return self.trace_span_metrics
        return (
            self.trace_sampling_probability is None
            or self.trace_sampling_probability >= 1.0
        )

    def block_policy(self):
        """The :class:`~repro.pmag.blocks.BlockPolicy` this config asks
        for, or None when downsampling is disabled."""
        if self.downsample_after_s is None:
            return None
        from repro.pmag.blocks import BlockPolicy

        return BlockPolicy(
            block_range_ns=int(self.block_range_s * NANOS_PER_SEC),
            downsample_after_ns=int(self.downsample_after_s * NANOS_PER_SEC),
            resolution_ns=int(self.downsample_resolution_s * NANOS_PER_SEC),
        )

    def __post_init__(self) -> None:
        if self.trace_max_traces < 1:
            raise DeploymentError("trace store capacity must be >= 1")
        if self.trace_sampling_probability is not None and not (
            0.0 <= self.trace_sampling_probability <= 1.0
        ):
            raise DeploymentError(
                "trace_sampling_probability must be in [0, 1]"
            )
        if self.trace_slow_span_ms < 0:
            raise DeploymentError("trace_slow_span_ms cannot be negative")
        if self.trace_pending_max_traces < 1:
            raise DeploymentError("trace_pending_max_traces must be >= 1")
        if self.anomaly_interval_s <= 0:
            raise DeploymentError("anomaly_interval_s must be positive")
        if self.scrape_interval_s <= SCRAPE_TIMEOUT_S:
            raise DeploymentError(
                f"scrape interval must exceed the {SCRAPE_TIMEOUT_S:g} s "
                f"scrape timeout"
            )
        if self.retention_hours <= 0:
            raise DeploymentError("retention must be positive")
        if self.analysis_every_s <= 0 or self.analysis_window_s <= 0:
            raise DeploymentError("analysis cadence/window must be positive")
        if self.enable_exporters and not (
                self.enable_tme or self.enable_ebpf
                or self.enable_node_exporter or self.enable_cadvisor):
            raise DeploymentError("at least one exporter must be enabled")
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
                "storage_executor_workers must be 0: shard fan-out runs in "
                "the calling thread"
            )
        if self.block_range_s <= 0:
            raise DeploymentError("block_range_s must be positive")
        if self.downsample_resolution_s <= 0:
            raise DeploymentError("downsample_resolution_s must be positive")
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
        if self.downsample_after_s is not None:
            if self.downsample_after_s <= 0:
                raise DeploymentError("downsample_after_s must be positive")
            block_ns = int(self.block_range_s * NANOS_PER_SEC)
            resolution_ns = int(self.downsample_resolution_s * NANOS_PER_SEC)
            if block_ns % resolution_ns:
                raise DeploymentError(
                    "block_range_s must be a whole multiple of "
                    "downsample_resolution_s"
                )
