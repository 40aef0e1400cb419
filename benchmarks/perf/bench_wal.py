"""WAL benchmark: what durability costs the pipeline, what the
version-3 log costs against the version-1 log, and what a checkpoint
weighs.

Three measurements, all in this process so none depends on another
process's numbers; the first two interleave their sides so neither side
depends on which CPU mode the box happens to be in:

* ``wal_overhead`` — the same full scrape → rule-evaluation → render
  cycle as ``bench_pipeline``'s ``scrape_cycle``, on two deployments
  stepped in turn: WAL off (the default: one ``is None`` check per
  batch) and WAL on (write-through, a flush per cycle).
  ``overhead_ratio`` is ``on / off``, the price of crash safety;
  ``bytes_per_sample`` is what the medium took per logged sample,
  series records included.
* ``wal_writer_*`` — the writer alone.  Every commit the WAL-on
  deployment's store made is recorded with the commit group it fell in
  (a scrape cycle is one; a commit outside any group is a group of its
  own) and replayed, in alternation, into fresh version-1 writers
  (``WalWriterV1`` from ``tests/codec_oracle.py``: the memoised
  per-sample encoder as it stood in production, which has no groups and
  takes each group as one ``append_many``) and fresh ``WalWriter`` objects
  (``open_group``, one ``commit`` per recorded commit, ``close_group``):
  once into one writer as recorded (``monolith``) and once into four,
  every commit cut by series fingerprint the way a 4-partition log
  hands it to its per-partition writers (``sharded4``).  ``ratio`` is
  the median over adjacent pairs of ``v2 / v1``, ``v2`` naming the
  current writer.
* ``wal_checkpoint`` — the WAL-on deployment's store as a checkpoint:
  ``bytes_per_sample`` of the archive's version-3 (deflated) snapshot
  against ``v2_bytes_per_sample``, the same body stored raw as version 2
  did (``reference_snapshot`` from ``tests/codec_oracle.py``), plus the
  median ``snapshot_ms`` and ``restore_ms``.  It gates nothing.

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
import zlib

from benchmarks.perf.harness import BenchReport

from repro.experiments.common import make_sgx_host
from repro.pmag.archive import restore, snapshot
from repro.pmag.storage import series_fingerprint
from repro.pmag.wal import WalWriter
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from repro.teemon import TeemonConfig, deploy
from tests.codec_oracle import WalWriterV1, reference_snapshot

SCHEMA = "teemon.bench.wal/2"


class _Pipeline:
    """One deployment stepped a full cycle at a time."""

    def __init__(self, enable_wal: bool) -> None:
        self.kernel, _driver = make_sgx_host(seed=7)
        self.deployment = deploy(
            self.kernel, TeemonConfig(enable_wal=enable_wal), start=False
        )
        #: The commits the store made, one list per commit group.
        self.groups: list = []
        wal = self.deployment.wal
        if wal is not None:
            commit, open_group = wal.commit, wal.open_group

            def recorded_open_group():
                self.groups.append([])
                open_group()

            def recorded_commit(entries):
                if not wal.group_open:
                    self.groups.append([])
                self.groups[-1].append(list(entries))
                commit(entries)

            wal.open_group = recorded_open_group
            wal.commit = recorded_commit

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
    the WAL-on run's volume, the commit groups it made and its store."""
    off, on = _Pipeline(False), _Pipeline(True)
    for pipeline in (off, on):
        pipeline.cycle()  # warm-up: first scrape creates every series
    on.groups.clear()
    samples = {off: [], on: []}
    for index in range(cycles):
        for pipeline in ((off, on) if index % 2 else (on, off)):
            samples[pipeline].append(pipeline.cycle())
    wal = on.deployment.wal
    volume = (wal.records_total, on.deployment.disk.bytes_written)
    groups = on.groups
    for pipeline in (off, on):
        pipeline.deployment.shutdown()
    return (statistics.median(samples[off]), statistics.median(samples[on]),
            volume, groups, on.deployment.tsdb)


def by_partition(groups, shards: int = 1):
    """What each writer of a ``shards``-way log is handed: per group, one
    list of commits per partition, every commit cut by series
    fingerprint (entry order kept, empty parts left out)."""
    out = []
    for commits in groups:
        parts = [[] for _ in range(shards)]
        for entries in commits:
            buckets = {}
            for entry in entries:
                buckets.setdefault(
                    series_fingerprint(entry[0]) % shards, []).append(entry)
            for shard, part in buckets.items():
                parts[shard].append(part)
        out.append(parts)
    return out


def replay(writer_class, cycles):
    """Seconds to push ``cycles`` (:func:`by_partition`) through fresh
    writers, one per partition, and their disk."""
    disk = SimDisk()
    writers = [writer_class(disk, f"wal/shard-{index:02d}")
               for index in range(len(cycles[0]))]
    started = time.perf_counter()
    for cycle in cycles:
        for writer, commits in zip(writers, cycle):
            if writer_class is WalWriterV1:
                writer.append_many(
                    [entry for entries in commits for entry in entries])
                continue
            writer.open_group()
            for entries in commits:
                writer.commit(entries)
            writer.close_group()
    for writer in writers:
        writer.flush()
    return time.perf_counter() - started, disk


def time_writers(cycles, pairs: int):
    """v1 control against v2, same groups, adjacent in time."""
    samples = sum(len(entries) for cycle in cycles
                  for commits in cycle for entries in commits)
    took = {WalWriterV1: [], WalWriter: []}
    written = {}
    for index in range(pairs + 1):
        order = (WalWriterV1, WalWriter) if index % 2 else (WalWriter, WalWriterV1)
        for writer_class in order:
            elapsed, disk = replay(writer_class, cycles)
            written[writer_class] = disk.bytes_written
            if index:  # pair 0 is the warm-up
                took[writer_class].append(elapsed)
    return {
        "samples": samples,
        "calls": sum(len(commits) for cycle in cycles for commits in cycle),
        "v1_ns_per_sample": statistics.median(took[WalWriterV1]) / samples * 1e9,
        "v2_ns_per_sample": statistics.median(took[WalWriter]) / samples * 1e9,
        "ratio": statistics.median(
            v2 / v1 for v1, v2 in zip(took[WalWriterV1], took[WalWriter])),
        "v1_bytes_per_sample": written[WalWriterV1] / samples,
        "bytes_per_sample": written[WalWriter] / samples,
    }


def time_checkpoint(engine, repeats: int):
    """Snapshot and restore ``engine`` in turn; the version-3 file
    against the raw version-2 body it deflates."""
    snapshot_s, restore_s = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        data = snapshot(engine)
        snapshot_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        restore(data)
        restore_s.append(time.perf_counter() - started)
    samples = engine.sample_count()
    raw = reference_snapshot(2, zlib.decompress(bytes(data[12:])))
    return {
        "samples": samples,
        "series": engine.series_count(),
        "v2_bytes_per_sample": len(raw) / samples,
        "bytes_per_sample": len(data) / samples,
        "snapshot_ms": statistics.median(snapshot_s) * 1e3,
        "restore_ms": statistics.median(restore_s) * 1e3,
    }


def run_suite(quick: bool) -> BenchReport:
    """Measure the pipeline with the WAL off and on, then the writers."""
    report = BenchReport(quick=quick)
    cycles = 10 if quick else 50
    pairs = 7 if quick else 25
    off_s, on_s, (records, wal_bytes), groups, store = time_pipeline(cycles)
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
    report.add("wal_writer_monolith",
               **time_writers(by_partition(groups), pairs))
    report.add("wal_writer_sharded4",
               **time_writers(by_partition(groups, 4), pairs))
    report.add("wal_checkpoint", **time_checkpoint(store, pairs))
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
