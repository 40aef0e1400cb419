"""The ``teemon_self`` target: the monitoring stack as its own exporter.

TEEMon's aggregator scrapes exporters; this module closes the loop by
making the monitoring pipeline itself scrapable.  One endpoint (port
9901) serves, in OpenMetrics format:

* the scrape manager's own counters (``teemon_scrape_*_total``,
  ``teemon_target_flaps_total``) — the *same* family objects registered
  in :attr:`ScrapeManager.self_registry`, so the exposition is always a
  live view and ``rate(teemon_scrape_retries_total[1m])`` is a real
  PromQL query over real scraped series;
* tracer counters (``teemon_trace_spans_started_total`` …), refreshed at
  collect time from the live tracer;
* durability telemetry (``teemon_wal_*``) — live views over the
  write-ahead-log writer: records written through, flushes, checkpoints,
  segments, and the unflushed-record loss window;
* recovery telemetry (``teemon_recovery_*``) — cumulative crash-recovery
  statistics of the deployment: recoveries, records replayed, records
  and segments quarantined for corruption, and the *exact* samples lost
  to crashes as measured against the simulated medium's loss report;
* storage-engine telemetry (``teemon_storage_*``) — shard count,
  per-shard series/sample counts (``{shard="N"}``), compaction passes,
  samples folded into downsampled buckets, bytes saved by downsampling,
  and range evaluations served from rollups;
* ``teemon_span_duration_seconds`` — a histogram of span durations
  (virtual time), labelled by span name, fed from the tracer's span-end
  callback.  Each observation carries an OpenMetrics **exemplar**
  ``{trace_id=…,span_id=…}``, so a slow bucket on a dashboard resolves
  back to a concrete stored trace via ``TraceStore.get``.

Unlike the paper's four per-host exporters this one is *not* an
:class:`~repro.exporters.base.Exporter`: it has no host process and no
modelled footprint (the pipeline's cost is already charged to the
aggregator), it is purely an endpoint over state that exists anyway.
"""

from __future__ import annotations

from typing import Optional

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

#: Span durations are virtual-time and mostly sub-millisecond; the
#: default 5ms-and-up buckets would collapse them into one bucket.
SPAN_DURATION_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0,
)


class TeemonSelfExporter:
    """Serves the pipeline's self-telemetry as an OpenMetrics endpoint."""

    def __init__(self, hostname: str, scrape_manager=None, tracer=None,
                 wal=None, recovery_stats=None, storage=None,
                 rules=None, alerting=None, span_metrics: bool = True) -> None:
        self.hostname = hostname
        self.registry = CollectorRegistry()
        self._tracer = tracer
        self._wal = wal
        self._recovery_stats = recovery_stats
        self._storage = storage
        self._rules = rules
        self._alerting = alerting
        self._endpoint: Optional[HttpEndpoint] = None
        self.scrapes_served = 0
        if scrape_manager is not None:
            # Re-register the scrape manager's family objects: both
            # registries share them, so this exposition is a live view.
            for family in scrape_manager.self_registry.families():
                self.registry.register(family)
        if tracer is not None:
            self._spans_started = self.registry.counter(
                "teemon_trace_spans_started_total",
                "Spans started by the pipeline tracer",
            )
            self._spans_ended = self.registry.counter(
                "teemon_trace_spans_ended_total",
                "Spans ended by the pipeline tracer",
            )
            self._traces_started = self.registry.counter(
                "teemon_trace_traces_total",
                "Traces started by the pipeline tracer",
            )
            self._traces_sampled_out = self.registry.counter(
                "teemon_trace_traces_sampled_out_total",
                "Traces dropped at the root by the head sampler",
            )
            self._spans_unsampled = self.registry.counter(
                "teemon_trace_spans_unsampled_total",
                "Span requests served by the unsampled fast path",
            )
            self._trace_spans_stored = self.registry.counter(
                "teemon_trace_spans_stored_total",
                "Spans accepted into the trace store",
            )
            self._traces_evicted = self.registry.counter(
                "teemon_trace_traces_evicted_total",
                "Whole traces FIFO-evicted past the store's capacity",
            )
            self._traces_kept = self.registry.counter(
                "teemon_trace_traces_kept_total",
                "Completed traces the tail keep rules promoted",
            )
            self._traces_dropped = self.registry.counter(
                "teemon_trace_traces_dropped_total",
                "Completed traces the tail keep rules discarded",
            )
            self._trace_spans_dropped = self.registry.counter(
                "teemon_trace_spans_dropped_total",
                "Spans discarded with tail-dropped traces",
            )
            self._trace_pending = self.registry.gauge(
                "teemon_trace_pending_traces",
                "Traces buffered awaiting a tail-sampling verdict",
            )
            self._span_duration = None
            if span_metrics:
                # The per-span-name duration histogram is the expensive
                # part of trace self-telemetry: ~10 bucket series per
                # span name, encoded, scraped, parsed, and ingested every
                # cycle.  Deployments that head-sample leave it off by
                # default — a 10% sample skews duration quantiles anyway.
                self._span_duration = self.registry.histogram(
                    "teemon_span_duration_seconds",
                    "Span durations in virtual time, by span name",
                    label_names=("span",),
                    buckets=SPAN_DURATION_BUCKETS,
                )
                tracer.on_span_end(self._observe_span)
            self.registry.on_collect(self._sync_tracer_counters)
        if wal is not None:
            # Durability telemetry: live views over the WAL writer.  The
            # counters reset on a restart (a fresh writer per process
            # incarnation, as with a real daemon's in-process counters);
            # ``rate()`` handles counter resets.
            self._wal_records = self.registry.counter(
                "teemon_wal_records_total",
                "Samples written through to the write-ahead log",
            )
            self._wal_flushes = self.registry.counter(
                "teemon_wal_flushes_total",
                "WAL segment fsyncs performed",
            )
            self._wal_checkpoints = self.registry.counter(
                "teemon_wal_checkpoints_total",
                "Checkpoints written (snapshot + segment truncation)",
            )
            self._wal_segments = self.registry.counter(
                "teemon_wal_segments_total",
                "WAL segments opened",
            )
            self._wal_unflushed = self.registry.gauge(
                "teemon_wal_unflushed_records",
                "Records appended since the last flush (the loss window)",
            )
            self.registry.on_collect(self._sync_wal_counters)
        if recovery_stats is not None:
            # Recovery telemetry: cumulative across every resurrection of
            # the deployment (the deployment object outlives the monitor
            # process, so these never reset).
            self._recoveries = self.registry.counter(
                "teemon_recovery_total",
                "Crash recoveries performed by this deployment",
            )
            self._recovery_replayed = self.registry.counter(
                "teemon_recovery_records_replayed_total",
                "WAL records replayed into the database across recoveries",
            )
            self._recovery_quarantined = self.registry.counter(
                "teemon_recovery_records_quarantined_total",
                "Corrupt WAL records skipped (CRC mismatch or bad payload)",
            )
            self._recovery_segments_quarantined = self.registry.counter(
                "teemon_recovery_segments_quarantined_total",
                "WAL segments abandoned for unwalkable corruption",
            )
            self._recovery_samples_lost = self.registry.gauge(
                "teemon_recovery_samples_lost",
                "Exact samples destroyed by crashes, as measured against "
                "the medium's own loss report",
            )
            self.registry.on_collect(self._sync_recovery_counters)
        if storage is not None:
            # Storage-engine telemetry: shard layout and the block
            # lifecycle's compaction counters, refreshed at collect time
            # from the engine's ``storage_stats()``.
            self._storage_shards = self.registry.gauge(
                "teemon_storage_shards",
                "Shards behind the storage engine",
            )
            self._storage_series = self.registry.gauge(
                "teemon_storage_series",
                "Distinct series held, per shard",
                label_names=("shard",),
            )
            self._storage_samples = self.registry.gauge(
                "teemon_storage_samples",
                "Raw (not yet downsampled) samples held, per shard",
                label_names=("shard",),
            )
            self._storage_rollup_samples = self.registry.gauge(
                "teemon_storage_rollup_samples",
                "Samples folded into downsampled buckets, per shard",
                label_names=("shard",),
            )
            self._storage_compactions = self.registry.counter(
                "teemon_storage_compactions_total",
                "Block-compaction passes run",
            )
            self._storage_compacted = self.registry.counter(
                "teemon_storage_samples_compacted_total",
                "Raw samples folded into downsampled rollup buckets",
            )
            self._storage_bytes_saved = self.registry.gauge(
                "teemon_storage_downsample_bytes_saved",
                "Approximate bytes released by replacing raw chunks with "
                "rollup buckets",
            )
            self._storage_downsampled_reads = self.registry.counter(
                "teemon_storage_downsampled_reads_total",
                "Range-function evaluations served from downsampled buckets",
            )
            self.registry.on_collect(self._sync_storage_counters)
        if rules is not None:
            # Rule-evaluation telemetry: the modelled evaluation time of
            # the recording/alerting rule engine, recording-rule
            # backfill activity, and static-label conflicts surfaced by
            # the collision detector.
            self._rule_eval_seconds = self.registry.gauge(
                "teemon_rule_eval_seconds",
                "Cumulative modelled rule-evaluation time (virtual)",
            )
            self._rule_conflicts = self.registry.counter(
                "teemon_rule_conflicts_total",
                "Recording-rule label collisions (static labels stomping "
                "series labels, or output label sets collapsing)",
            )
            self._rule_backfilled = self.registry.counter(
                "teemon_rule_backfilled_steps_total",
                "Missed rule intervals recovered by incremental backfill",
            )
            self._rule_gap_fallbacks = self.registry.counter(
                "teemon_rule_gap_fallbacks_total",
                "Evaluation gaps too wide to backfill (full re-evaluation)",
            )
            self.registry.on_collect(self._sync_rule_counters)
        if alerting is not None:
            # Alerting telemetry: live alert-state gauges plus the
            # notification router's per-receiver delivery outcomes.
            self._alerts_firing = self.registry.gauge(
                "teemon_alerts_firing",
                "Alert instances currently in the firing state",
            )
            self._alerts_pending = self.registry.gauge(
                "teemon_alerts_pending",
                "Alert instances currently in the pending state",
            )
            self._notifications = self.registry.counter(
                "teemon_notifications_total",
                "Notification deliveries by receiver and outcome",
                label_names=("receiver", "outcome"),
            )
            self.registry.on_collect(self._sync_alerting_counters)

    def _sync_rule_counters(self) -> None:
        stats = self._rules()
        self._rule_eval_seconds.labels().set_to(float(stats["eval_seconds"]))
        self._rule_conflicts.labels().set_to(float(stats["conflicts_total"]))
        self._rule_backfilled.labels().set_to(
            float(stats["backfilled_steps_total"])
        )
        self._rule_gap_fallbacks.labels().set_to(
            float(stats["gap_fallbacks_total"])
        )

    def _sync_alerting_counters(self) -> None:
        stats = self._alerting()
        self._alerts_firing.labels().set_to(float(stats["firing"]))
        self._alerts_pending.labels().set_to(float(stats["pending"]))
        for (receiver, outcome), count in sorted(
            stats["notifications"].items()
        ):
            self._notifications.labels(receiver, outcome).set_to(float(count))

    def _sync_storage_counters(self) -> None:
        stats = self._storage()
        self._storage_shards.labels().set_to(float(stats["shards"]))
        for index, shard in enumerate(stats["per_shard"]):
            label = str(index)
            self._storage_series.labels(label).set_to(float(shard["series"]))
            self._storage_samples.labels(label).set_to(float(shard["samples"]))
            self._storage_rollup_samples.labels(label).set_to(
                float(shard["rollup_samples"])
            )
        self._storage_compactions.labels().set_to(
            float(stats["compactions_total"])
        )
        self._storage_compacted.labels().set_to(
            float(stats["samples_compacted_total"])
        )
        self._storage_bytes_saved.labels().set_to(
            float(stats["bytes_saved_total"])
        )
        self._storage_downsampled_reads.labels().set_to(
            float(stats["downsampled_reads_total"])
        )

    def _sync_wal_counters(self) -> None:
        self._wal_records.labels().set_to(float(self._wal.records_total))
        self._wal_flushes.labels().set_to(float(self._wal.flushes_total))
        self._wal_checkpoints.labels().set_to(float(self._wal.checkpoints_total))
        self._wal_segments.labels().set_to(float(self._wal.segments_total))
        self._wal_unflushed.labels().set_to(float(self._wal.unflushed_records))

    def _sync_recovery_counters(self) -> None:
        stats = self._recovery_stats()
        self._recoveries.labels().set_to(float(stats["recoveries"]))
        self._recovery_replayed.labels().set_to(float(stats["records_replayed"]))
        self._recovery_quarantined.labels().set_to(
            float(stats["records_quarantined"])
        )
        self._recovery_segments_quarantined.labels().set_to(
            float(stats["segments_quarantined"])
        )
        self._recovery_samples_lost.labels().set_to(float(stats["samples_lost"]))

    def _sync_tracer_counters(self) -> None:
        tracer = self._tracer
        self._spans_started.labels().set_to(float(tracer.spans_started))
        self._spans_ended.labels().set_to(float(tracer.spans_ended))
        self._traces_started.labels().set_to(float(tracer.traces_started))
        self._traces_sampled_out.labels().set_to(
            float(getattr(tracer, "traces_sampled_out", 0))
        )
        self._spans_unsampled.labels().set_to(
            float(getattr(tracer, "spans_unsampled", 0))
        )
        store = getattr(tracer, "store", None)
        if store is None:
            return
        self._trace_spans_stored.labels().set_to(float(store.spans_stored))
        self._traces_evicted.labels().set_to(float(store.traces_evicted))
        self._traces_kept.labels().set_to(float(store.traces_kept))
        self._traces_dropped.labels().set_to(float(store.traces_dropped))
        self._trace_spans_dropped.labels().set_to(float(store.spans_dropped))
        self._trace_pending.labels().set_to(float(store.pending_count()))

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
        return self._endpoint

    def _serve(self) -> str:
        self.scrapes_served += 1
        return encode_registry(self.registry)
