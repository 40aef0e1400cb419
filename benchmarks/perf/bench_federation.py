"""Federation-tier ingest benchmark, saturation sweep, and CI gates.

Quantifies what the remote-write uplink costs the *global* monitor
compared with scraping the same targets directly, at equal sample
volume:

* ``ingest_direct``    — the direct-scrape ingest path: parse one
  OpenMetrics exposition per cycle, merge target identity, batch-append
  (exactly what :meth:`ScrapeManager.scrape_once` does per target);
* ``ingest_federated`` — the remote-write path at the receiver: decode
  batched zlib/base64 frames (CRC-checked WAL records) and batch-append;
* ``client_encode``    — the leaf-side collect+encode cost, reported for
  context (the leaf pays it, not the global tier);
* ``aggregate_uplink`` — the region-tier pushdown payoff: the same
  region view shipped under ``federation_mode="aggregate"`` (recording
  rule outputs plus the raw ``up`` allowlist) against shipping raw.

The saturation sweep (``sweep_n{N}_f{F}_{mode}`` cells) drives a
sharded receiver across fleet sizes x frame sizes x raw/aggregate, the
curve EXPERIMENTS.md's knee recipe reads.

Gates:

* batched remote-write ingest stays within ``--max-overhead`` (default
  1.10x) of direct-scrape ingest — federation must not make the global
  tier the fleet's new bottleneck;
* the aggregate uplink carries at most ``--max-bytes-ratio`` (default
  0.5x) of the raw uplink's bytes at region shape — pushdown must keep
  paying for itself.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_federation [--quick]
        [--output BENCH_federation.json] [--max-overhead 1.10]
        [--max-bytes-ratio 0.5]
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.harness import BenchReport, best_of

from repro.openmetrics.parser import parse_exposition
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.remote_write import (
    RemoteWriteReceiver,
    build_ship_filter,
    encode_frame,
)
from repro.pmag.storage import ShardedTsdb
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC

SCHEMA = "teemon.bench.federation/2"

#: Samples per remote-write frame (the client default).
FRAME_SAMPLES = 500

#: Fleet sizes x frame sizes of the saturation sweep (full run).
SWEEP_NODES = (20, 60, 120)
SWEEP_NODES_QUICK = (10, 20, 40)
SWEEP_FRAME_SAMPLES = (100, 500)
SWEEP_CYCLES = 40
SWEEP_CYCLES_QUICK = 12

#: Shard count of the sweep's receiving engine (the ``federated`` test
#: profile's storage shape).
RECEIVER_SHARDS = 4

METRICS = ("sgx_epc_pages_evicted_total", "sgx_aexs_total",
           "ebpf_syscalls_total", "node_cpu_utilization",
           "scrape_duration_seconds")

#: Region-tier recording-rule outputs (one series per rule, fleet-wide
#: aggregates) — what ``federation_mode="aggregate"`` ships instead of
#: the raw per-node series.
RULE_OUTPUTS = ("job:syscalls:rate1m", "job:epc_evictions:rate1m",
                "job:context_switches:rate1m", "job:page_faults:rate1m")


def _fleet_cycles(nodes: int, cycles: int):
    """Per-cycle (now_ns, [(node, metric, value), ...]) fleet snapshots."""
    out = []
    for step in range(cycles):
        now_ns = (step + 1) * 5 * NANOS_PER_SEC
        rows = [
            (f"node-{n}", metric, float(step * (n + 1) + i))
            for n in range(nodes)
            for i, metric in enumerate(METRICS)
        ]
        out.append((now_ns, rows))
    return out


def _expositions(cycle_rows):
    """One exposition body per (cycle, node) — what a scrape reads."""
    bodies = []
    for now_ns, rows in cycle_rows:
        by_node = {}
        for node, metric, value in rows:
            by_node.setdefault(node, []).append(f"{metric} {value}")
        for node, lines in by_node.items():
            bodies.append((now_ns, node, "\n".join(lines) + "\n# EOF\n"))
    return bodies


def _entries(cycle_rows):
    """The same samples as labelled TSDB entries (the remote-write view)."""
    entries = []
    for now_ns, rows in cycle_rows:
        for node, metric, value in rows:
            entries.append((Labels({
                METRIC_NAME_LABEL: metric, "job": "sgx", "instance": node,
            }), now_ns, value))
    return entries


def _region_entries(cycle_rows, nodes: int):
    """A region relay's TSDB view: raw fleet series + rule outputs + up.

    Every cycle lands the fleet's raw samples, one output sample per
    recording rule, and a liveness ``up`` sample per node — the series
    mix an aggregate-mode region uplink filters.
    """
    entries = _entries(cycle_rows)
    for now_ns, _rows in cycle_rows:
        for rule in RULE_OUTPUTS:
            entries.append((Labels({
                METRIC_NAME_LABEL: rule, "job": "sgx",
            }), now_ns, float(now_ns % 97)))
        for n in range(nodes):
            entries.append((Labels({
                METRIC_NAME_LABEL: "up", "job": "sgx",
                "instance": f"node-{n}",
            }), now_ns, 1.0))
    return entries


def _frames(entries, frame_samples: int = FRAME_SAMPLES,
            sender: str = "leaf-0"):
    """Client-side framing: sequence-numbered, zlib/base64-packed.

    One block-header memo per call, the way one client incarnation
    carries one across the frames it ships.
    """
    frames = []
    headers = {}
    for start in range(0, len(entries), frame_samples):
        chunk = entries[start:start + frame_samples]
        frames.append(
            encode_frame(sender, 0, len(frames) + 1, chunk, headers))
    return frames


def run_suite(quick: bool) -> BenchReport:
    report = BenchReport(quick=quick)
    nodes = 20 if quick else 60
    cycles = 24 if quick else 80
    runs = 3 if quick else 5

    cycle_rows = _fleet_cycles(nodes, cycles)
    volume = sum(len(rows) for _now, rows in cycle_rows)
    bodies = _expositions(cycle_rows)
    entries = _entries(cycle_rows)
    assert len(entries) == volume

    def direct():
        tsdb = Tsdb()
        for now_ns, node, body in bodies:
            identity = {"job": "sgx", "instance": node}
            batch = []
            for sample in parse_exposition(body):
                labels = dict(sample.labels)
                labels.update(identity)
                labels[METRIC_NAME_LABEL] = sample.name
                batch.append((Labels(labels), now_ns, sample.value))
            tsdb.append_batch(batch)

    direct_s = best_of(runs, direct)
    report.add(
        "ingest_direct", elapsed_ms=direct_s * 1e3,
        samples_per_s=volume / direct_s,
        notes=f"{volume} samples, {nodes} nodes x {cycles} cycles",
    )

    encode_s = best_of(runs, lambda: _frames(entries))
    frames = _frames(entries)
    report.add(
        "client_encode", elapsed_ms=encode_s * 1e3,
        frames=float(len(frames)),
        notes="leaf-side cost, informational (not gated)",
    )

    def federated():
        receiver = RemoteWriteReceiver(Tsdb())
        for body in frames:
            receiver.handle(body)

    federated_s = best_of(runs, federated)
    report.add(
        "ingest_federated", elapsed_ms=federated_s * 1e3,
        samples_per_s=volume / federated_s,
        overhead_vs_direct=federated_s / direct_s,
        notes=f"{len(frames)} frames of <= {FRAME_SAMPLES} samples",
    )

    # Sanity: both paths stored the identical sample volume.
    probe = RemoteWriteReceiver(Tsdb())
    for body in frames:
        probe.handle(body)
    assert probe.samples_applied == volume, (probe.samples_applied, volume)
    assert probe.samples_deduped == 0

    # ------------------------------------------------------------------
    # Region-tier pushdown: aggregate vs raw uplink bytes.
    # ------------------------------------------------------------------
    region = _region_entries(cycle_rows, nodes)
    ship_filter = build_ship_filter("aggregate", allowlist=("up",))
    aggregate = [entry for entry in region if ship_filter(entry[0])]
    raw_bytes = sum(len(f) for f in _frames(region, sender="region-0"))
    agg_bytes = sum(len(f) for f in _frames(aggregate, sender="region-0"))
    report.add(
        "aggregate_uplink",
        raw_bytes=float(raw_bytes),
        aggregate_bytes=float(agg_bytes),
        bytes_ratio_vs_raw=agg_bytes / raw_bytes,
        raw_samples=float(len(region)),
        aggregate_samples=float(len(aggregate)),
        notes=f"region shape: {nodes} nodes, {len(RULE_OUTPUTS)} rules, "
              f"allowlist=('up',)",
    )

    # ------------------------------------------------------------------
    # Saturation sweep: nodes x frame size x mode into a sharded
    # receiver.  The samples_per_s column is the saturation curve.
    # ------------------------------------------------------------------
    sweep_nodes = SWEEP_NODES_QUICK if quick else SWEEP_NODES
    sweep_cycles = SWEEP_CYCLES_QUICK if quick else SWEEP_CYCLES
    sweep_runs = 2 if quick else 3
    for cell_nodes in sweep_nodes:
        rows = _fleet_cycles(cell_nodes, sweep_cycles)
        cell_region = _region_entries(rows, cell_nodes)
        for frame_samples in SWEEP_FRAME_SAMPLES:
            for mode in ("raw", "aggregate"):
                if mode == "raw":
                    shipped = cell_region
                else:
                    shipped = [
                        entry for entry in cell_region
                        if ship_filter(entry[0])
                    ]
                cell_frames = _frames(
                    shipped, frame_samples, sender="region-0"
                )
                cell_bytes = sum(len(f) for f in cell_frames)

                def cell_ingest():
                    receiver = RemoteWriteReceiver(
                        ShardedTsdb(shards=RECEIVER_SHARDS)
                    )
                    for body in cell_frames:
                        receiver.handle(body)

                cell_s = best_of(sweep_runs, cell_ingest)
                report.add(
                    f"sweep_n{cell_nodes}_f{frame_samples}_{mode}",
                    elapsed_ms=cell_s * 1e3,
                    samples_per_s=len(shipped) / cell_s,
                    uplink_bytes=float(cell_bytes),
                    frames=float(len(cell_frames)),
                    samples=float(len(shipped)),
                )

    return report


def check_overhead(report: BenchReport, max_overhead: float,
                   max_bytes_ratio: float) -> int:
    """The CI gates: ingest overhead and aggregate-uplink byte ratio."""
    by_name = {r.name: r for r in report.results}
    failures = 0
    ratio = by_name["ingest_federated"].metrics["overhead_vs_direct"]
    if ratio > max_overhead:
        print(f"GATE FAIL: federated ingest is {ratio:.3f}x direct-scrape "
              f"(limit {max_overhead:.2f}x)", file=sys.stderr)
        failures += 1
    else:
        print(f"gate ok: federated ingest is {ratio:.3f}x direct-scrape "
              f"(limit {max_overhead:.2f}x)")
    bytes_ratio = by_name["aggregate_uplink"].metrics["bytes_ratio_vs_raw"]
    if bytes_ratio > max_bytes_ratio:
        print(f"GATE FAIL: aggregate uplink ships {bytes_ratio:.3f}x raw "
              f"bytes (limit {max_bytes_ratio:.2f}x)", file=sys.stderr)
        failures += 1
    else:
        print(f"gate ok: aggregate uplink ships {bytes_ratio:.3f}x raw "
              f"bytes (limit {max_bytes_ratio:.2f}x)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_federation.json",
                        help="report path (default: ./BENCH_federation.json)")
    parser.add_argument("--max-overhead", type=float, default=1.10,
                        help="allowed federated/direct ingest ratio")
    parser.add_argument("--max-bytes-ratio", type=float, default=0.5,
                        help="allowed aggregate/raw uplink byte ratio")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    return check_overhead(report, args.max_overhead, args.max_bytes_ratio)


if __name__ == "__main__":
    sys.exit(main())
