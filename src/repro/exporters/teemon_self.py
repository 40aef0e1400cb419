"""The ``teemon_self`` target: the monitor as its own exporter.

The paper monitors the monitor the way it monitors enclaves: Prometheus
scrapes an exporter (§4).  This module is that exporter, and the one
place that names the monitor's self-series.  Like the TME (``tme.py``)
it is deliberately dumb: :data:`FAMILIES` is a table of ``(family,
source, key, help, is_counter)`` rows, each re-exposing one value of a
``stats()`` mapping a component already keeps, and one refresh at
collect time re-reads them.  The deployment hands in one reader per
source it runs; families of absent sources are not registered.

A reader returns the source's mapping; for a source with labels
(:data:`SOURCE_LABELS`) it returns ``{label values: mapping}`` — one
row per WAL partition, uplink client, notification outcome or sender.

Beside the table, ``teemon_span_duration_seconds`` is a histogram of
span durations (virtual time) by span name, fed from the tracer's
span-end callback; each observation carries an exemplar
``{trace_id=…,span_id=…}`` that resolves to a stored trace.

It is not an :class:`~repro.exporters.base.Exporter`: it has no host
process and no modelled footprint (the pipeline's cost is already
charged to the aggregator), only an endpoint over state that exists
anyway.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.net.http import HttpEndpoint, HttpNetwork
from repro.openmetrics.encoder import encode_registry
from repro.openmetrics.registry import CollectorRegistry
from repro.openmetrics.types import Exemplar
from repro.simkernel.clock import NANOS_PER_SEC

#: Port convention: one past the paper's exporter range (9100+); the
#: self-telemetry endpoint is infrastructure, not a workload exporter.
SELF_EXPORTER_PORT = 9901
SELF_EXPORTER_PATH = "/metrics"
SELF_JOB = "teemon_self"
#: The receiver's per-sender lag gauge, which the pmv federation view reads.
FEDERATION_LAG = "teemon_federation_lag_seconds"

#: Span durations are virtual-time and mostly sub-millisecond; the
#: default 5ms-and-up buckets would collapse them into one bucket.
SPAN_DURATION_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0,
)

#: Label names of the sources that have them; every other source is
#: one unlabelled row.
SOURCE_LABELS = {
    "shard": ("shard",),
    "notifications": ("receiver", "outcome"),
    "uplink": ("uplink",),
    "lag": ("sender",),
}

#: (family, source, key in the source's mapping, help text, is_counter):
#: the naming scheme of every monitor self-series.
FAMILIES = (
    # ScrapeManager.self_stats()
    ("teemon_scrape_samples_ingested_total", "scrape", "samples_ingested", "Exposition samples appended to the TSDB", True),
    ("teemon_scrape_up_writes_total", "scrape", "up_writes", "Synthetic up-series samples written", True),
    ("teemon_scrape_meta_writes_total", "scrape", "meta_writes", "Scrape metadata samples written (duration, sample count)", True),
    ("teemon_scrape_samples_dropped_total", "scrape", "samples_dropped", "Duplicate-timestamp samples dropped on append", True),
    ("teemon_scrape_stale_writes_total", "scrape", "stale_writes", "Staleness-marker transitions written", True),
    ("teemon_scrape_timeouts_total", "scrape", "timeouts_total", "Scrapes discarded because the response exceeded the budget", True),
    ("teemon_scrape_retries_total", "scrape", "retries_total", "Retry attempts issued after failed scrapes", True),
    ("teemon_target_flaps_total", "scrape", "flaps_total", "Target up/down transitions observed", True),
    ("teemon_scrape_targets_removed_total", "scrape", "targets_removed", "Targets dropped by discovery and retired with staleness markers", True),
    # MonitoringSession.trace_stats(): tracer and trace store
    ("teemon_trace_spans_started_total", "trace", "spans_started", "Spans started by the pipeline tracer", True),
    ("teemon_trace_spans_ended_total", "trace", "spans_ended", "Spans ended by the pipeline tracer", True),
    ("teemon_trace_traces_total", "trace", "traces_started", "Traces started by the pipeline tracer", True),
    ("teemon_trace_traces_sampled_out_total", "trace", "traces_sampled_out", "Traces dropped at the root by the head sampler", True),
    ("teemon_trace_spans_unsampled_total", "trace", "spans_unsampled", "Span requests served by the unsampled fast path", True),
    ("teemon_trace_spans_stored_total", "trace", "spans_stored", "Spans accepted into the trace store", True),
    ("teemon_trace_traces_evicted_total", "trace", "traces_evicted", "Whole traces FIFO-evicted past the store's capacity", True),
    ("teemon_trace_traces_kept_total", "trace", "traces_kept", "Completed traces the tail keep rules promoted", True),
    ("teemon_trace_traces_dropped_total", "trace", "traces_dropped", "Completed traces the tail keep rules discarded", True),
    ("teemon_trace_spans_dropped_total", "trace", "spans_dropped", "Spans discarded with tail-dropped traces", True),
    ("teemon_trace_pending_traces", "trace", "pending_traces", "Traces buffered awaiting a tail-sampling verdict", False),
    # MonitoringSession.wal_stats(): this incarnation's WAL writer
    ("teemon_wal_records_total", "wal", "records_total", "Samples written through to the write-ahead log", True),
    ("teemon_wal_flushes_total", "wal", "flushes_total", "WAL segment fsyncs performed", True),
    ("teemon_wal_checkpoints_total", "wal", "checkpoints_total", "Checkpoints written (snapshot + segment truncation)", True),
    ("teemon_wal_segments_total", "wal", "segments_total", "WAL segments opened", True),
    ("teemon_wal_unflushed_records", "wal", "unflushed_records", "Records appended since the last flush (the loss window)", False),
    # TeemonDeployment.recovery_stats: cumulative over resurrections
    ("teemon_recovery_total", "recovery", "recoveries", "Crash recoveries performed by this deployment", True),
    ("teemon_recovery_records_replayed_total", "recovery", "records_replayed", "WAL records replayed into the database across recoveries", True),
    ("teemon_recovery_records_quarantined_total", "recovery", "records_quarantined", "Corrupt WAL records skipped (CRC mismatch or bad payload)", True),
    ("teemon_recovery_segments_quarantined_total", "recovery", "segments_quarantined", "WAL segments abandoned for unwalkable corruption", True),
    ("teemon_recovery_samples_lost", "recovery", "samples_lost", "Exact samples destroyed by crashes, as measured against the medium's own loss report", False),
    # TeemonDeployment.storage_stats(), and its per-WAL-partition rows
    ("teemon_storage_shards", "storage", "shards", "Shards behind the storage engine", False),
    ("teemon_storage_series", "shard", "series", "Distinct series held, per shard", False),
    ("teemon_storage_samples", "shard", "samples", "Samples held, per shard", False),
    # RuleEvaluator.stats()
    ("teemon_rule_eval_seconds", "rules", "eval_seconds", "Cumulative modelled rule-evaluation time (virtual)", False),
    ("teemon_rule_conflicts_total", "rules", "conflicts_total", "Recording-rule label collisions (static labels stomping series labels, or output label sets collapsing)", True),
    ("teemon_rule_backfilled_steps_total", "rules", "backfilled_steps_total", "Missed recording-rule steps recorded late; steps beyond MAX_BACKFILL_STEPS are abandoned", True),
    ("teemon_rule_gap_fallbacks_total", "rules", "gap_fallbacks_total", "Gaps wider than MAX_BACKFILL_STEPS, whose older steps were abandoned", True),
    # TeemonDeployment.alerting_stats() and the router's counters
    ("teemon_alerts_firing", "alerts", "firing", "Alert instances currently in the firing state", False),
    ("teemon_alerts_pending", "alerts", "pending", "Alert instances currently in the pending state", False),
    ("teemon_notifications_total", "notifications", "count", "Notification deliveries by receiver and outcome", True),
    # QueryEngine.cache_stats()
    ("pmag_query_cache_hits_total", "query_cache", "hits", "Queries whose plan came from the plan cache", True),
    ("pmag_query_cache_misses_total", "query_cache", "misses", "Queries parsed on a plan-cache miss", True),
    ("pmag_query_cache_evictions_total", "query_cache", "evictions", "Plans evicted from the plan cache", True),
    ("pmag_query_cache_size", "query_cache", "size", "Plans held in the plan cache", False),
    # RemoteWriteClient.stats(), one row per uplink (cursor name)
    ("teemon_remote_write_queue_frames", "uplink", "queue_frames", "Frames waiting in the send queue", False),
    ("teemon_remote_write_queue_samples", "uplink", "queue_samples", "Samples inside queued frames", False),
    ("teemon_remote_write_frames_inflight", "uplink", "frames_inflight", "Queued frames with a delivery attempt made", False),
    ("teemon_remote_write_frames_sent_total", "uplink", "frames_sent", "Frame delivery attempts", True),
    ("teemon_remote_write_frames_acked_total", "uplink", "frames_acked", "Frames acknowledged by the receiver", True),
    ("teemon_remote_write_frames_dropped_total", "uplink", "frames_dropped", "Frames dropped, oldest first, from a full send queue", True),
    ("teemon_remote_write_retries_total", "uplink", "retries_total", "Delivery retries after failed attempts", True),
    ("teemon_remote_write_samples_shipped_total", "uplink", "samples_shipped", "Samples in acknowledged frames", True),
    ("teemon_remote_write_samples_dropped_total", "uplink", "samples_dropped", "Samples in dropped frames", True),
    ("teemon_remote_write_bytes_shipped_total", "uplink", "bytes_shipped", "Wire bytes of acknowledged frames", True),
    # RemoteWriteReceiver.stats() and lag_seconds()
    ("teemon_remote_write_frames_received_total", "receiver", "frames_received", "Frames posted to the remote-write endpoint", True),
    ("teemon_remote_write_frames_replayed_total", "receiver", "frames_replayed", "Frames acknowledged again as replays, not re-applied", True),
    ("teemon_remote_write_samples_applied_total", "receiver", "samples_applied", "Received samples stored", True),
    ("teemon_remote_write_samples_deduped_total", "receiver", "samples_deduped", "Received samples already stored (HA duplicates)", True),
    ("teemon_remote_write_replay_dedup_hits_total", "receiver", "replay_dedup_hits", "Samples inside replayed frames", True),
    (FEDERATION_LAG, "lag", "seconds", "Virtual now minus the newest sample applied from each sender", False),
)

#: A source reader: the mapping, or ``{label values: mapping}``.
Reader = Callable[[], Mapping]


class TeemonSelfExporter:
    """Serves the monitor's self-telemetry as an OpenMetrics endpoint."""

    def __init__(self, hostname: str, sources: Dict[str, Reader],
                 tracer=None) -> None:
        """``sources`` maps source names of :data:`FAMILIES` to readers;
        ``tracer``, when given, feeds the span-duration histogram."""
        self.hostname = hostname
        self.registry = CollectorRegistry()
        self._sources = dict(sources)
        self._families: Dict[str, list] = {name: [] for name in self._sources}
        for name, source, key, help_text, is_counter in FAMILIES:
            if source in self._families:
                make = self.registry.counter if is_counter else self.registry.gauge
                family = make(name, help_text, SOURCE_LABELS.get(source, ()))
                self._families[source].append((family, key))
        self.registry.on_collect(self._refresh)
        self._span_duration = None
        if tracer is not None:
            self._span_duration = self.registry.histogram(
                "teemon_span_duration_seconds",
                "Span durations in virtual time, by span name",
                label_names=("span",),
                buckets=SPAN_DURATION_BUCKETS,
            )
            tracer.on_span_end(self._observe_span)
        self._endpoint: Optional[HttpEndpoint] = None
        self._network: Optional[HttpNetwork] = None
        self.scrapes_served = 0

    def _refresh(self) -> None:
        """Re-read every source (runs at scrape time)."""
        for source, read in self._sources.items():
            rows = read()
            if source not in SOURCE_LABELS:
                rows = {(): rows}
            for values, stats in rows.items():
                for family, key in self._families[source]:
                    family.labels(*values).set_to(float(stats[key]))

    def _observe_span(self, span) -> None:
        duration_s = span.duration_ns / NANOS_PER_SEC
        self._span_duration.labels(span.name).observe(
            duration_s,
            exemplar=Exemplar.of(
                duration_s,
                timestamp_s=span.end_ns / NANOS_PER_SEC,
                trace_id=span.trace_id,
                span_id=span.span_id,
            ),
        )

    @property
    def url(self) -> str:
        """Endpoint URL once exposed."""
        if self._endpoint is None:
            raise RuntimeError("teemon_self endpoint not exposed yet")
        return self._endpoint.url

    def expose(self, network: HttpNetwork) -> HttpEndpoint:
        """Publish the self-telemetry endpoint on the simulated network."""
        self._endpoint = network.register(
            self.hostname, SELF_EXPORTER_PORT, SELF_EXPORTER_PATH, self._serve
        )
        self._network = network
        return self._endpoint

    def withdraw(self) -> None:
        """Take the endpoint down.  A route already gone (or since taken
        by another incarnation) is left alone."""
        endpoint, network = self._endpoint, self._network
        if network is not None:
            route = (endpoint.host, endpoint.port, endpoint.path)
            if network.lookup(*route) is endpoint:
                network.unregister(*route)
            self._network = None

    def _serve(self) -> str:
        self.scrapes_served += 1
        return encode_registry(self.registry)
