"""What the benchmark declares: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; the smoke test keeps the two in step.  Every workload reports every
metric — a layer a workload leaves idle reads 0 in the per-layer table,
which is the "no move" prediction made visible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: name -> why this workload exists (one line, <= 200 characters).
WORKLOADS: Dict[str, str] = {
    "fleet_federated": (
        "Write path end to end: 100 fleet nodes -> 4 leaf scrapers -> 2 WAL "
        "relays -> HA root with rules and alerts; remote_write, wal and tsdb "
        "do the work, the simulated substrate almost none."
    ),
    "single_host_app": (
        "The paper's section-6 host: Redis under SCONE with memtier load, "
        "four exporters, eBPF and PMAN on; work sits in simkernel, ebpf and "
        "exposition, federation and WAL are idle."
    ),
    "dashboard_read": (
        "Storage used the other way: a 10-panel dashboard refreshed over a "
        "preloaded 216k-sample monolith; select and range evaluation, "
        "plan-cache hits and misses; ingest, WAL, federation idle."
    ),
    "crash_loop": (
        "Sharded ingest with a sharded WAL, crashed every 150 virtual s and "
        "recovered by replay; the only workload where WAL encode, checkpoint "
        "size and recovery time trade against each other."
    ),
}

#: Least wall time one measurement spends in the timed window.  Every
#: workload's fixed step count takes longer than this today, so the
#: floor only binds once the stack gets ~1.4x faster.
RUN_SECONDS = 5

#: What one unit of ``work_per_s`` is on each workload.
WORK_UNITS: Dict[str, str] = {
    "fleet_federated": "samples queryable at the active root replica",
    "single_host_app": "monitored virtual seconds",
    "dashboard_read": "panel queries",
    "crash_loop": "samples accepted by the monitor",
}

#: (name, unit, better, bound): metrics a user of the deployment sees.
#: ``bound`` is the share of the parent's median a metric may worsen by.
#: Bounds are about three times the usual run-to-run spread
#: (interquartile range over the median of ten runs: 2-8 %, on a bad
#: quarter of an hour 15 %) of the box this was written on; a tighter
#: bound would flag the machine, not the change.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.20),
    ("step_ms_p50", "ms", "lower", 0.20),
    ("step_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

#: Layer spans, in pipeline order; each yields ``<span>.calls`` and
#: ``<span>.self_s``.  ``tracing.py`` says what each one wraps.
SPANS: List[str] = [
    "apps.run", "frameworks.emit_slice", "simkernel.syscalls.dispatch",
    "simkernel.hooks.fire", "ebpf.vm.run",
    "simkernel.clock.run",
    "exporters.serve", "openmetrics.encode", "orchestration.discover",
    "net.http.request",
    "scrape.cycle", "openmetrics.parse",
    "tsdb.append", "tsdb.retention",
    "wal.append", "wal.flush", "wal.checkpoint",
    "wal.recover", "teemon.resurrect",
    "remote_write.flush", "remote_write.encode", "remote_write.handle",
    "remote_write.decode",
    "rules.evaluate", "alerting.evaluate", "alerting.route", "pman.analyze",
    "trace.detect",
    "query.parse", "query.instant", "query.range", "tsdb.select",
    "pmv.render",
    "driver",
]

#: (name, unit, better): counts read from the layers' public stats at the
#: window boundaries.  All repeat exactly for a fixed seed and step count.
COUNTERS: List[Tuple[str, str, str]] = [
    ("scrape.samples_ingested", "count", "higher"),
    ("scrape.failures", "count", "lower"),
    ("scrape.bytes_parsed", "B", "lower"),
    ("tsdb.series", "count", "lower"),
    ("tsdb.samples", "count", "higher"),
    ("tsdb.bytes_per_sample", "B", "lower"),
    ("wal.records", "count", "lower"),
    ("wal.flushes", "count", "lower"),
    ("wal.bytes_written", "B", "lower"),
    ("wal.checkpoints", "count", "lower"),
    ("wal.records_replayed", "count", "lower"),
    ("wal.samples_lost", "count", "lower"),
    ("remote_write.frames", "count", "lower"),
    ("remote_write.bytes_per_sample", "B", "lower"),
    ("remote_write.samples_shipped", "count", "higher"),
    ("remote_write.samples_deduped", "count", "lower"),
    ("remote_write.send_failures", "count", "lower"),
    ("remote_write.queue_depth_max", "count", "lower"),
    ("rules.samples_written", "count", "higher"),
    ("alerting.notifications", "count", "lower"),
    ("query.plan_cache_hit_ratio", "1", "higher"),
    ("query.samples_selected_per_query", "count", "lower"),
    ("hooks.fires", "count", "higher"),
    ("ebpf.programs_run", "count", "lower"),
]

#: (name, unit, better): whole-workload results that exist on one or two
#: workloads only, so they cannot carry a bound (a bounded metric must be
#: non-zero everywhere).  Virtual-time and count values repeat exactly.
LEVEL: List[Tuple[str, str, str]] = [
    ("root_lag_s_max", "s", "lower"),
    ("recovery_ms_p50", "ms", "lower"),
    ("wal_bytes_per_sample", "B", "lower"),
    ("app_tput_normalized", "1", "higher"),
    ("failed_share", "1", "lower"),
]

#: (name, unit, better): properties of the measurement itself — what
#: tracing cost, what the trace left unnamed, and how fast the machine
#: ran relative to the nominal one (1.0; the slow mode reads ~0.67).
RUN_QUALITY: List[Tuple[str, str, str]] = [
    ("trace_overhead_ratio", "1", "lower"),
    ("unattributed_share", "1", "lower"),
    ("machine_speed", "1", "higher"),
]

#: Per-layer metrics measured in wall-clock; everything else repeats
#: exactly and ``compare`` demands equality.
_WALL_PER_LAYER = {"recovery_ms_p50", "trace_overhead_ratio",
                   "unattributed_share", "machine_speed"}


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    out: List[Tuple[str, str, str]] = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    return out + COUNTERS + LEVEL + RUN_QUALITY


def is_exact(name: str) -> bool:
    """Whether a per-layer metric repeats exactly for one seed."""
    return not (name.endswith(".self_s") or name in _WALL_PER_LAYER)


def benchmark_json() -> dict:
    """The contents of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }
