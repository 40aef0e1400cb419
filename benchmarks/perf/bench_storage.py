"""Storage-engine benchmark: shard scaling and downsampled query cost.

Measures the pluggable storage engine along the axes the ISSUE-5
refactor touches, then writes ``BENCH_storage.json``:

* ``storage_ingest`` — ingest throughput through
  :func:`build_storage_engine` at 1/2/4/8 shards, one ``append_batch``
  per scrape cycle as every writer commits (the workload of
  ``bench_pipeline``'s ``tsdb_ingest``, so the 1-shard number is
  directly comparable to the monolith baseline), each shard count
  against an interleaved monolith control;
* ``storage_query``  — wide-window range-query latency over a
  many-series database at 1/2/4/8 shards, a ``sum by (rate)`` and a
  ``sum by (avg_over_time)`` query: both evaluate the step grid over
  the fan-out merge, the second beside an interleaved monolith control;
* ``storage_downsample`` — the same composable range query over old
  data served from raw chunks vs from compacted rollup buckets, plus
  what compaction folded and saved.

Sharded ingest against the monolith (``shardN_vs_monolith``) is
measured and printed, not gated: splitting each batch by shard makes a
sharded store's batched ingest 1.2–1.4× the monolith's.  With
``--baseline BENCH_pipeline.json`` the script gates the 1-shard path
against the monolith baseline (``tsdb_ingest`` elapsed and
``range_query`` bulk latency) and exits non-zero past
``--max-regression`` (default 5%) — sharding must cost nothing to
deployments that did not ask for it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_storage [--quick]
        [--output BENCH_storage.json]
        [--baseline BENCH_pipeline.json] [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Tuple

from benchmarks.perf.harness import BenchReport, best_of

from repro.pmag.blocks import BlockPolicy
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.storage import build_storage_engine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, seconds

SCHEMA = "teemon.bench.storage/1"
SCRAPE_INTERVAL_NS = 5 * NANOS_PER_SEC
SHARD_COUNTS = (1, 2, 4, 8)


def paired_best(
    runs: int, control: Callable[[], None], measured: Callable[[], None]
) -> Tuple[float, float]:
    """Best-of timing of two workloads with *interleaved* repetitions.

    The gated comparisons ask "is the 1-shard engine path slower than a
    plain Tsdb doing the same work?" — a ratio of two ~10ms numbers.
    Timing each side in its own block lets a CPU-contention burst land
    entirely on one of them and fake a regression; alternating the reps
    makes both minima sample the same quiet moments, so the ratio stays
    honest on a noisy machine.
    """
    best_control = best_measured = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        control()
        best_control = min(best_control, time.perf_counter() - started)
        started = time.perf_counter()
        measured()
        best_measured = min(best_measured, time.perf_counter() - started)
    return best_control, best_measured


def bench_storage_ingest(report: BenchReport, quick: bool) -> None:
    """Batched ingest per shard count, fresh engine each run, each shard
    count interleaved with the same workload on a plain :class:`Tsdb`.

    Mirrors ``bench_pipeline``'s ``tsdb_ingest`` exactly: one
    ``append_batch`` per scrape cycle over label sets built once, as the
    scraper's steady state hands them over.  ``shard1_*`` is the
    apples-to-apples monolith comparison.
    """
    series = 8 if quick else 16
    cycles = 500 if quick else 4000
    total = series * cycles
    metrics = {"samples": total}

    def ingest_into(factory) -> None:
        engine = factory()
        labels = [Labels.of("bench_metric", idx=str(index))
                  for index in range(series)]
        for step in range(cycles):
            time_ns = (step + 1) * SCRAPE_INTERVAL_NS
            value = float(step)
            engine.append_batch([(one, time_ns, value) for one in labels])

    ingest_into(Tsdb)  # warm-up
    for shards in SHARD_COUNTS:
        control_s, shard_s = paired_best(
            5,
            lambda: ingest_into(Tsdb),
            lambda: ingest_into(lambda: build_storage_engine(shards)),
        )
        metrics[f"monolith_vs{shards}_elapsed_s"] = control_s
        metrics[f"shard{shards}_elapsed_s"] = shard_s
        metrics[f"shard{shards}_vs_monolith"] = shard_s / control_s
        metrics[f"shard{shards}_samples_per_sec"] = total / shard_s
    report.add("storage_ingest", **metrics)


def bench_storage_query(report: BenchReport, quick: bool) -> None:
    """Wide-window range queries against 1/2/4/8 shards.

    ``shard1_gate_ms`` replays ``bench_pipeline``'s ``range_query``
    workload (one series, same sample and step counts) through
    ``build_storage_engine(1)`` — the number the CI baseline gate
    compares; the ``shardN_wide_ms`` series measure the fan-out merge
    over a 16-series database.
    """
    samples = 2000 if quick else 10_000
    steps = 200 if quick else 1000

    def counter_db(factory):
        db = factory()
        for step in range(samples):
            db.append_sample(
                "bench_counter", (step + 1) * SCRAPE_INTERVAL_NS, float(step),
                job="bench",
            )
        return db

    end_ns = samples * SCRAPE_INTERVAL_NS
    step_ns = max(SCRAPE_INTERVAL_NS,
                  (end_ns - SCRAPE_INTERVAL_NS) // max(1, steps - 1))
    start_ns = end_ns - (steps - 1) * step_ns
    query = "rate(bench_counter[5m])"

    control_engine = QueryEngine(counter_db(Tsdb))
    shard1_engine = QueryEngine(counter_db(lambda: build_storage_engine(1)))
    shard1_engine.range_query(query, start_ns, end_ns, step_ns)  # warm-up
    control_s, shard1_s = paired_best(
        5,
        lambda: control_engine.range_query(query, start_ns, end_ns, step_ns),
        lambda: shard1_engine.range_query(query, start_ns, end_ns, step_ns),
    )
    metrics = {"steps": steps, "series_samples": samples,
               "monolith_gate_ms": control_s * 1e3,
               "shard1_gate_ms": shard1_s * 1e3}

    wide_series = 16
    wide_samples = samples // 4
    wide_end = wide_samples * SCRAPE_INTERVAL_NS
    wide_query = "sum by (idx) (rate(bench_metric[5m]))"
    agg_query = "sum by (idx) (avg_over_time(bench_metric[5m]))"

    def wide_db(factory):
        db = factory()
        for step in range(wide_samples):
            time_ns = (step + 1) * SCRAPE_INTERVAL_NS
            for index in range(wide_series):
                db.append_sample(
                    "bench_metric", time_ns, float(step), idx=str(index)
                )
        return db

    control_wide = QueryEngine(wide_db(Tsdb))
    grid = (SCRAPE_INTERVAL_NS, wide_end, step_ns)
    expected = control_wide.range_query(agg_query, *grid)
    monolith_agg_s = float("inf")
    for shards in SHARD_COUNTS:
        query_engine = QueryEngine(wide_db(lambda: build_storage_engine(shards)))
        elapsed = best_of(
            3, lambda: query_engine.range_query(wide_query, *grid)
        )
        metrics[f"shard{shards}_wide_ms"] = elapsed * 1e3
        assert query_engine.range_query(agg_query, *grid) == expected, (
            "sharded result diverged from the monolith's"
        )
        # Interleaved with the monolith control so the two columns
        # sample the same quiet moments (see paired_best).
        control_s, agg_s = paired_best(
            3,
            lambda: control_wide.range_query(agg_query, *grid),
            lambda: query_engine.range_query(agg_query, *grid),
        )
        monolith_agg_s = min(monolith_agg_s, control_s)
        metrics[f"shard{shards}_agg_wide_ms"] = agg_s * 1e3
    metrics["monolith_agg_wide_ms"] = monolith_agg_s * 1e3
    report.add("storage_query", **metrics)


def bench_storage_downsample(report: BenchReport, quick: bool) -> None:
    """The same wide-step query over raw samples vs rollup buckets."""
    per_series = 2000 if quick else 20_000
    n_series = 3
    # The configured defaults' shape: a 5-second scrape cadence folded
    # into 5-minute buckets — 60 raw samples per rollup bucket.
    policy = BlockPolicy(
        block_range_ns=seconds(600),
        downsample_after_ns=seconds(600),
        resolution_ns=seconds(300),
    )

    def populate(engine) -> None:
        for index in range(n_series):
            for step in range(per_series):
                engine.append_sample(
                    "bench_signal", (step + 1) * seconds(5),
                    float(step % 997), idx=str(index),
                )

    raw = Tsdb()
    compacted = Tsdb(block_policy=policy)
    populate(raw)
    populate(compacted)
    end_ns = per_series * seconds(5)
    now_ns = end_ns + seconds(600)
    folded = compacted.compact(now_ns)

    # A dashboard's "daily overview" shape: hour-wide windows, coarse
    # steps.  Raw evaluation slices ~720 samples per window; the rollup
    # path reads ~12 buckets.
    query = "avg_over_time(bench_signal[1h])"
    step_ns = seconds(600)
    start_ns = seconds(3600)
    raw_engine, rollup_engine = QueryEngine(raw), QueryEngine(compacted)
    raw_s = best_of(3, lambda: raw_engine.range_query(
        query, start_ns, end_ns, step_ns
    ))
    rollup_s = best_of(3, lambda: rollup_engine.range_query(
        query, start_ns, end_ns, step_ns
    ))
    assert (rollup_engine.range_query(query, start_ns, end_ns, step_ns)
            == raw_engine.range_query(query, start_ns, end_ns, step_ns))
    report.add(
        "storage_downsample",
        raw_ms=raw_s * 1e3,
        rollup_ms=rollup_s * 1e3,
        speedup=raw_s / rollup_s if rollup_s else 0.0,
        samples_folded=folded,
        bytes_saved=compacted.stats.bytes_saved_total,
    )


def run_suite(quick: bool) -> BenchReport:
    report = BenchReport(quick=quick)
    bench_storage_ingest(report, quick)
    bench_storage_query(report, quick)
    bench_storage_downsample(report, quick)
    return report


def print_sharding(report: BenchReport) -> None:
    """Sharded batched ingest against the interleaved monolith control:
    measured, not gated."""
    ingest = {r.name: r.metrics for r in report.results}["storage_ingest"]
    for shards in SHARD_COUNTS[1:]:
        print(f"batched ingest {shards} shards: "
              f"x{ingest[f'shard{shards}_vs_monolith']:.3f} vs monolith")


def check_baseline(report: BenchReport, baseline_path: str,
                   max_regression: float) -> int:
    """Gate: the 1-shard paths must match the monolith baseline.

    Each check compares the 1-shard measurement against two references
    and passes if it is within ``max_regression`` of *either*:

    * the ``BENCH_pipeline.json`` baseline (a different process — on a
      busy machine its numbers can swing far more than 5% for these
      ~10ms workloads), and
    * the in-process monolith control: the identical workload on a plain
      ``Tsdb`` measured adjacent to the shard-1 number.

    Machine noise moves both same-process numbers together, so the
    control leg absorbs it; a genuine abstraction cost in the 1-shard
    engine path shows up against both references and fails the gate.
    """
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    by_name = {r.name: r.metrics for r in report.results}
    checks = (
        ("tsdb_ingest(1 shard)",
         by_name["storage_ingest"]["shard1_elapsed_s"],
         baseline["results"]["tsdb_ingest"]["elapsed_s"],
         by_name["storage_ingest"]["monolith_vs1_elapsed_s"]),
        ("range_query(1 shard)",
         by_name["storage_query"]["shard1_gate_ms"],
         baseline["results"]["range_query"]["bulk_ms"],
         by_name["storage_query"]["monolith_gate_ms"]),
    )
    limit = 1.0 + max_regression
    failed = 0
    for label, measured, reference, control in checks:
        ratio = measured / reference
        control_ratio = measured / control
        verdict = ("OK" if min(ratio, control_ratio) <= limit
                   else "REGRESSION")
        print(
            f"{label}: {measured:.4f} vs baseline {reference:.4f} "
            f"(x{ratio:.3f}) / control {control:.4f} "
            f"(x{control_ratio:.3f}, limit x{limit:.3f}) {verdict}"
        )
        if min(ratio, control_ratio) > limit:
            failed = 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_storage.json",
                        help="report path (default: ./BENCH_storage.json)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH_pipeline.json to gate the 1-shard path")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed 1-shard regression vs baseline")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    print_sharding(report)
    if args.baseline:
        return check_baseline(report, args.baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
