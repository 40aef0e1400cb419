"""Rule-engine benchmark: what alerting costs a pipeline cycle.

One leg, ``alerting_overhead``: the full scrape -> rules -> render cycle
(:func:`~benchmarks.perf.bench_pipeline.build_cycle`) with the alerting
engine off and on, side by side, their timed blocks of cycles
interleaved (:func:`~benchmarks.perf.harness.time_cycles`); then
alerting off again the same way beside a control, ``bench_pipeline``'s
own ``scrape_cycle`` deployment.  The ratios are medians of
per-repetition ratios.  The alerting-off cycle
is gated against the control (``--max-regression``, default 5%):
deployments that did not ask for alerting must not pay for it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_rules [--quick]
        [--output BENCH_rules.json] [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.perf.bench_pipeline import build_cycle
from benchmarks.perf.harness import BenchReport, paired_ratio, time_cycles

SCHEMA = "teemon.bench.rules/3"

#: The two configurations, in the order every repetition runs them.
CONFIGS = {
    "off": {"enable_alerting": False},
    "on": {"enable_alerting": True},
}

#: The gate's pair: alerting off beside the ``scrape_cycle`` deployment,
#: timed on their own.
CONTROL_PAIR = {"off": CONFIGS["off"], "control": {}}


def run_suite(quick: bool) -> BenchReport:
    report = BenchReport(quick=quick)
    # Enough interleaved repetitions to span several of the machine's
    # speed changes, in either form.
    cycles, repeats = (5 if quick else 25), 40
    per_cycle = time_cycles(build_cycle, CONFIGS, cycles, repeats)
    off, on = per_cycle["off"], per_cycle["on"]
    pair = time_cycles(build_cycle, CONTROL_PAIR, cycles, repeats)
    report.add(
        "alerting_overhead",
        off_ms=min(off) * 1e3,
        on_ms=min(on) * 1e3,
        off_vs_control_ratio=paired_ratio(pair["off"], pair["control"]),
        overhead_ratio=paired_ratio(on, off),
        cycles=cycles,
        repeats=repeats,
    )
    return report


def check_control_gate(report: BenchReport, max_regression: float) -> int:
    """Gate: alerting off must stay within ``max_regression`` of the
    pipeline control timed beside it."""
    ratio = report.results[0].metrics["off_vs_control_ratio"]
    limit = 1.0 + max_regression
    verdict = "OK" if ratio <= limit else "REGRESSION"
    print(
        f"alerting-off cycle: x{ratio:.3f} vs the pipeline control "
        f"(limit x{limit:.3f}) {verdict}"
    )
    return 0 if ratio <= limit else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_rules.json",
                        help="report path (default: ./BENCH_rules.json)")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed alerting-off regression vs the control")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    return check_control_gate(report, args.max_regression)


if __name__ == "__main__":
    sys.exit(main())
