"""The metrics-pipeline microbenchmark suite.

Times the four hot paths the ISSUE-1 optimizations target and one
end-to-end cycle, then writes ``BENCH_pipeline.json``:

* ``tsdb_ingest``   — ingest throughput across many labelled series,
  one ``append_batch`` per scrape cycle as every writer commits;
* ``instant_query`` — dashboard-style instant query latency, with the
  query plan cache and with it disabled;
* ``range_query``   — step-grid range evaluation, many steps over one
  long counter; ``range_query_resets`` is the same counter with resets;
* ``hook_fire``     — hook dispatch throughput with zero and one
  observers (the two common cases during app simulation);
* ``scrape_cycle``  — one full scrape + rule evaluation + dashboard
  render against a real single-host deployment.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_pipeline [--quick]
        [--output BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.perf.harness import BenchReport, best_of

from repro.experiments.common import make_sgx_host
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, seconds
from repro.simkernel.hooks import HookRegistry
from repro.teemon import TeemonConfig, deploy

SCRAPE_INTERVAL_NS = 5 * NANOS_PER_SEC  # the paper's default exporter rate

SYSCALLS = ("read", "write", "futex", "epoll_wait", "clock_gettime",
            "sendto", "recvfrom", "close")


def _populated_tsdb(samples_per_series: int) -> Tsdb:
    """A TSDB shaped like a real deployment: one series per syscall name."""
    tsdb = Tsdb()
    for index, name in enumerate(SYSCALLS):
        for step in range(samples_per_series):
            tsdb.append_sample(
                "ebpf_syscalls_total",
                (step + 1) * SCRAPE_INTERVAL_NS,
                float(step * (index + 1)),
                name=name, job="ebpf",
            )
    return tsdb


def bench_tsdb_ingest(report: BenchReport, quick: bool) -> None:
    """Batched ingest throughput, fresh database each run: one
    ``append_batch`` per scrape cycle over label sets built once, as the
    scraper's steady state hands them over."""
    series = 8 if quick else 16
    per_series = 500 if quick else 4000
    total = series * per_series

    def workload() -> None:
        tsdb = Tsdb()
        labels = [Labels.of("bench_metric", idx=str(index))
                  for index in range(series)]
        for step in range(per_series):
            time_ns = (step + 1) * SCRAPE_INTERVAL_NS
            value = float(step)
            tsdb.append_batch([(one, time_ns, value) for one in labels])

    elapsed = best_of(3, workload)
    report.add(
        "tsdb_ingest",
        samples=total,
        samples_per_sec=total / elapsed,
        elapsed_s=elapsed,
    )


def bench_instant_query(report: BenchReport, quick: bool) -> None:
    """Instant query latency with and without the plan cache."""
    tsdb = _populated_tsdb(200 if quick else 2000)
    now_ns = tsdb._series[next(iter(tsdb._series))].last_time_ns()  # noqa: SLF001
    query = "sum by (name) (rate(ebpf_syscalls_total[1m]))"
    repeats = 50 if quick else 300

    cached = QueryEngine(tsdb)
    uncached = QueryEngine(tsdb, plan_cache_size=0)
    cached.instant(query, now_ns)  # warm the plan cache

    cached_s = best_of(3, lambda: [cached.instant(query, now_ns)
                                   for _ in range(repeats)])
    uncached_s = best_of(3, lambda: [uncached.instant(query, now_ns)
                                     for _ in range(repeats)])
    report.add(
        "instant_query",
        cached_us=cached_s / repeats * 1e6,
        uncached_us=uncached_s / repeats * 1e6,
        parse_cache_speedup=uncached_s / cached_s if cached_s else 0.0,
        repeats=repeats,
    )


def bench_range_query(report: BenchReport, quick: bool) -> None:
    """Step-grid range evaluation: 1k steps over a 10k-sample counter.

    ``range_query`` times a reset-free counter (bench_storage's baseline
    gate compares against it); ``range_query_resets`` times the same
    series reset to zero every 100 samples, reported but not gated.
    """
    samples = 2000 if quick else 10_000
    steps = 200 if quick else 1000
    end_ns = samples * SCRAPE_INTERVAL_NS
    step_ns = max(SCRAPE_INTERVAL_NS,
                  (end_ns - SCRAPE_INTERVAL_NS) // max(1, steps - 1))
    start_ns = end_ns - (steps - 1) * step_ns
    query = "rate(bench_counter[5m])"  # the dashboards' staple window

    # A period of ``samples`` never wraps: the reset-free counter.
    for name, period in (("range_query", samples),
                         ("range_query_resets", 100)):
        tsdb = Tsdb()
        for step in range(samples):
            tsdb.append_sample(
                "bench_counter", (step + 1) * SCRAPE_INTERVAL_NS,
                float(step % period), job="bench",
            )
        engine = QueryEngine(tsdb)
        bulk_s = best_of(
            3, lambda: engine.range_query(query, start_ns, end_ns, step_ns)
        )
        report.add(
            name,
            bulk_ms=bulk_s * 1e3,
            steps=steps,
            series_samples=samples,
        )


def bench_hook_fire(report: BenchReport, quick: bool) -> None:
    """Hook dispatch throughput: nothing attached vs one observer."""
    fires = 20_000 if quick else 200_000
    registry = HookRegistry()
    hook = "raw_syscalls:sys_enter"

    def fire_all() -> None:
        fire = registry.fire
        for index in range(fires):
            fire(hook, index, count=2, pid=1)

    idle_s = best_of(3, fire_all)

    counted = []
    handle = registry.attach(hook, lambda ctx: counted.append(ctx.count))
    observed_s = best_of(3, fire_all)
    handle.detach()

    report.add(
        "hook_fire",
        no_observer_per_sec=fires / idle_s,
        one_observer_per_sec=fires / observed_s,
        fires=fires,
    )


def bench_scrape_cycle(report: BenchReport, quick: bool) -> None:
    """One full scrape -> rule evaluation -> dashboard render cycle."""
    kernel, _driver = make_sgx_host(seed=7)
    deployment = deploy(kernel, TeemonConfig(), start=False)
    session = deployment.session
    cycles = 5 if quick else 25

    def cycle() -> None:
        kernel.clock.advance(seconds(5))
        deployment.scrape_manager.scrape_once()
        deployment.rule_evaluator.evaluate_all_once()
        session.render("sgx")

    cycle()  # warm-up: first scrape creates every series
    started_cycles = best_of(1, lambda: [cycle() for _ in range(cycles)])
    deployment.shutdown()
    report.add(
        "scrape_cycle",
        cycle_ms=started_cycles / cycles * 1e3,
        cycles=cycles,
    )


def run_suite(quick: bool) -> BenchReport:
    """Run every benchmark and return the populated report."""
    report = BenchReport(quick=quick)
    bench_tsdb_ingest(report, quick)
    bench_instant_query(report, quick)
    bench_range_query(report, quick)
    bench_hook_fire(report, quick)
    bench_scrape_cycle(report, quick)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_pipeline.json",
                        help="report path (default: ./BENCH_pipeline.json)")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    report.write(args.output)
    print(report.render())
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
