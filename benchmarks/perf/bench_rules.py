"""Rule-engine benchmark: what alerting costs a pipeline cycle.

One leg, ``alerting_overhead``: the full scrape -> rules -> render cycle
with the alerting engine off vs on.  With ``--baseline
BENCH_pipeline.json`` the alerting-off cycle is gated against the
baseline report's ``scrape_cycle.cycle_ms`` (default 5%): deployments
that did not ask for alerting must not pay for it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_rules [--quick]
        [--output BENCH_rules.json]
        [--baseline BENCH_pipeline.json] [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.harness import BenchReport, best_of

from repro.experiments.common import make_sgx_host
from repro.simkernel.clock import seconds
from repro.teemon import TeemonConfig, deploy

SCHEMA = "teemon.bench.rules/2"


def time_pipeline_cycles(enable_alerting: bool, cycles: int, repeats: int):
    """Best seconds per full scrape->rules->render cycle."""
    kernel, _driver = make_sgx_host(seed=7)
    deployment = deploy(
        kernel, TeemonConfig(enable_alerting=enable_alerting), start=False
    )
    session = deployment.session

    def cycle() -> None:
        kernel.clock.advance(seconds(5))
        deployment.scrape_manager.scrape_once()
        deployment.rule_evaluator.evaluate_all_once()
        session.render("sgx")

    cycle()  # warm-up: first scrape creates every series
    elapsed = best_of(repeats, lambda: [cycle() for _ in range(cycles)])
    deployment.shutdown()
    return elapsed / cycles


def run_suite(quick: bool) -> BenchReport:
    report = BenchReport(quick=quick)
    # bench_wal sizes: enough to measure a ~2ms cycle without noise
    # drowning the gate.
    cycles, repeats = (10, 4) if quick else (25, 4)
    off_s = time_pipeline_cycles(False, cycles, repeats)
    on_s = time_pipeline_cycles(True, cycles, repeats)
    report.add(
        "alerting_overhead",
        off_ms=off_s * 1e3,
        on_ms=on_s * 1e3,
        overhead_ratio=on_s / off_s,
        cycles=cycles,
    )
    return report


def check_baseline(report: BenchReport, baseline_path: str,
                   max_regression: float) -> int:
    """Gate: alerting-off must stay within ``max_regression`` of baseline."""
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_ms = baseline["results"]["scrape_cycle"]["cycle_ms"]
    off_ms = report.results[0].metrics["off_ms"]
    ratio = off_ms / baseline_ms
    limit = 1.0 + max_regression
    verdict = "OK" if ratio <= limit else "REGRESSION"
    print(
        f"alerting-off cycle: {off_ms:.3f}ms vs baseline "
        f"{baseline_ms:.3f}ms -> x{ratio:.3f} (limit x{limit:.3f}) {verdict}"
    )
    return 0 if ratio <= limit else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_rules.json",
                        help="report path (default: ./BENCH_rules.json)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH_pipeline.json to gate alerting-off against")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed alerting-off regression vs baseline")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    if args.baseline:
        return check_baseline(report, args.baseline, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
