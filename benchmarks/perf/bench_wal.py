"""WAL benchmark: what durability costs the pipeline, and what the
version-2 log costs against the version-1 log it replaced.

Two measurements, both interleaved in this process so neither depends on
another process's numbers or on which CPU mode the box happens to be in:

* ``wal_overhead`` — the same full scrape → rule-evaluation → render
  cycle as ``bench_pipeline``'s ``scrape_cycle``, on two deployments
  stepped in turn: WAL off (the default: one ``is None`` check per
  batch) and WAL on (write-through, a flush per cycle).
  ``overhead_ratio`` is ``on / off``, the price of crash safety;
  ``bytes_per_sample`` is what the medium took per logged sample,
  series records included.
* ``wal_writer_*`` — the writer alone.  Every ``append_many`` call the
  WAL-on deployment made is recorded and replayed, in alternation, into
  a fresh version-1 writer (``WalWriterV1`` from
  ``tests/codec_oracle.py``: the memoised per-sample encoder as it stood
  in production) and a fresh ``WalWriter``, once as recorded
  (``monolith``) and once with every batch cut by series fingerprint the
  way a 4-shard engine hands them to its per-shard writers
  (``sharded4``: mostly batches of one or two).  ``ratio`` is the median
  over adjacent pairs of ``v2 / v1``.

The gate (always on): ``ratio`` must stay within ``--max-regression``
(default 5 %) on both mixes — the small-batch path matters as much as
the big one.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_wal [--quick]
        [--output BENCH_wal.json] [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from benchmarks.perf.harness import BenchReport

from repro.experiments.common import make_sgx_host
from repro.pmag.storage import series_fingerprint
from repro.pmag.wal import WalWriter
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from repro.teemon import TeemonConfig, deploy
from tests.codec_oracle import WalWriterV1

SCHEMA = "teemon.bench.wal/2"


class _Pipeline:
    """One deployment stepped a full cycle at a time."""

    def __init__(self, enable_wal: bool) -> None:
        self.kernel, _driver = make_sgx_host(seed=7)
        self.deployment = deploy(
            self.kernel, TeemonConfig(enable_wal=enable_wal), start=False
        )
        self.calls: list = []
        wal = self.deployment.wal
        if wal is not None:
            # Record what the storage engine hands the writer.
            append_many = wal.append_many

            def recorded_append_many(entries):
                self.calls.append(list(entries))
                append_many(entries)

            wal.append_many = recorded_append_many

    def cycle(self) -> float:
        deployment = self.deployment
        started = time.perf_counter()
        self.kernel.clock.advance(seconds(5))
        deployment.scrape_manager.scrape_once()
        deployment.rule_evaluator.evaluate_all_once()
        if deployment.wal is not None:
            deployment.wal.flush()
        deployment.session.render("sgx")
        return time.perf_counter() - started


def time_pipeline(cycles: int):
    """Median WAL-off and WAL-on cycle seconds, stepped in turn; plus
    the WAL-on run's volume and the writer calls it made."""
    off, on = _Pipeline(False), _Pipeline(True)
    for pipeline in (off, on):
        pipeline.cycle()  # warm-up: first scrape creates every series
    on.calls.clear()
    samples = {off: [], on: []}
    for index in range(cycles):
        for pipeline in ((off, on) if index % 2 else (on, off)):
            samples[pipeline].append(pipeline.cycle())
    wal = on.deployment.wal
    volume = (wal.records_total, on.deployment.disk.bytes_written)
    calls = on.calls
    for pipeline in (off, on):
        pipeline.deployment.shutdown()
    return (statistics.median(samples[off]), statistics.median(samples[on]),
            volume, calls)


def cut_by_shard(calls, shards: int = 4):
    """The calls a ``shards``-way engine would make instead: each batch
    split by series fingerprint, entry order kept within a shard."""
    out = []
    for entries in calls:
        buckets = {}
        for entry in entries:
            buckets.setdefault(
                series_fingerprint(entry[0]) % shards, []).append(entry)
        out.extend(buckets.values())
    return out


def replay(writer_class, calls):
    """Seconds to push ``calls`` through a fresh writer, and its disk."""
    disk = SimDisk()
    writer = writer_class(disk)
    started = time.perf_counter()
    for entries in calls:
        writer.append_many(entries)
    writer.flush()
    return time.perf_counter() - started, disk


def time_writers(calls, pairs: int):
    """v1 control against v2, same calls, adjacent in time."""
    samples = sum(len(entries) for entries in calls)
    took = {WalWriterV1: [], WalWriter: []}
    written = {}
    for index in range(pairs + 1):
        order = (WalWriterV1, WalWriter) if index % 2 else (WalWriter, WalWriterV1)
        for writer_class in order:
            elapsed, disk = replay(writer_class, calls)
            written[writer_class] = disk.bytes_written
            if index:  # pair 0 is the warm-up
                took[writer_class].append(elapsed)
    return {
        "samples": samples,
        "calls": len(calls),
        "v1_ns_per_sample": statistics.median(took[WalWriterV1]) / samples * 1e9,
        "v2_ns_per_sample": statistics.median(took[WalWriter]) / samples * 1e9,
        "ratio": statistics.median(
            v2 / v1 for v1, v2 in zip(took[WalWriterV1], took[WalWriter])),
        "v1_bytes_per_sample": written[WalWriterV1] / samples,
        "bytes_per_sample": written[WalWriter] / samples,
    }


def run_suite(quick: bool) -> BenchReport:
    """Measure the pipeline with the WAL off and on, then the writers."""
    report = BenchReport(quick=quick)
    cycles = 10 if quick else 50
    pairs = 7 if quick else 25
    off_s, on_s, (records, wal_bytes), calls = time_pipeline(cycles)
    report.add(
        "wal_overhead",
        off_ms=off_s * 1e3,
        on_ms=on_s * 1e3,
        overhead_ratio=on_s / off_s,
        cycles=cycles,
        wal_records=records,
        wal_bytes=wal_bytes,
        bytes_per_sample=wal_bytes / records,
    )
    report.add("wal_writer_monolith", **time_writers(calls, pairs))
    report.add("wal_writer_sharded4",
               **time_writers(cut_by_shard(calls), pairs))
    return report


def check_writers(report: BenchReport, max_regression: float) -> int:
    """Gate: the v2 writer within ``max_regression`` of the v1 control."""
    limit = 1.0 + max_regression
    status = 0
    for result in report.results:
        if not result.name.startswith("wal_writer_"):
            continue
        ratio = result.metrics["ratio"]
        verdict = "OK" if ratio <= limit else "REGRESSION"
        print(f"{result.name}: v2/v1 x{ratio:.3f} (limit x{limit:.3f}) "
              f"{verdict}; {result.metrics['v1_bytes_per_sample']:.1f} -> "
              f"{result.metrics['bytes_per_sample']:.1f} B/sample")
        if ratio > limit:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_wal.json",
                        help="report path (default: ./BENCH_wal.json)")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed v2-writer slowdown vs the v1 control")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    return check_writers(report, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
