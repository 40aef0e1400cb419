"""Tracing-overhead benchmark: the pipeline with tracing off, on, sampled.

Measures the same full scrape → rule-evaluation → render cycle as
``bench_pipeline``'s ``scrape_cycle`` (:func:`build_cycle`), three ways:

* ``off``     — tracing disabled (the default): every instrumented call
  site goes through the no-op tracer.  This is the number that must not
  regress: the instrumentation's whole budget when disabled is a few
  ``enabled`` checks and no-op context managers;
* ``on``      — tracing enabled with the default bounded store, every
  trace recorded (the debugging configuration);
* ``sampled`` — the always-on production configuration: head sampling at
  10% plus tail keep rules.  Sampled-out traces take the shared
  unsampled-span fast path, so most cycles pay almost nothing.

The three run side by side: one deployment each, their timed blocks of
cycles interleaved.  Then tracing off runs again the same way beside a
control, ``bench_pipeline``'s own ``scrape_cycle`` deployment
(``TeemonConfig``'s defaults).  ``*_ms`` is each configuration's best
block; the ratios are medians of per-repetition ratios
(:func:`paired_ratio`), so a change of machine speed between blocks
cannot fake or hide overhead.

Two gates, both always on:

* ``sampled_overhead_ratio <= --max-sampled-overhead`` (default 1.2) —
  the bar that sampled tracing is cheap enough to leave enabled in
  production;
* ``off_vs_control_ratio <= 1 + --max-regression`` (default 5%) — the
  tracing-off cycle against the pipeline cycle timed beside it: tracing
  stays free when nobody asked for it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_trace [--quick]
        [--output BENCH_trace.json] [--max-sampled-overhead 1.2]
        [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import truediv
from statistics import median
from typing import Dict, List

from benchmarks.perf.bench_pipeline import build_cycle
from benchmarks.perf.harness import BenchReport, interleaved

SCHEMA = "teemon.bench.trace/2"


#: The three configurations, in the order every repetition runs them.
CONFIGS = {
    "off": {"enable_tracing": False},
    "on": {"enable_tracing": True},
    "sampled": {
        "enable_tracing": True,
        "trace_sampling_probability": 0.1,
        "trace_tail_sampling": True,
    },
}

#: The control gate's pair: tracing off beside the ``scrape_cycle``
#: deployment, timed on their own so the sampled gate's three
#: deployments run as they always have.
CONTROL_PAIR = {"off": CONFIGS["off"], "control": {}}


def time_cycles(configs: Dict[str, dict], cycles: int,
                repeats: int) -> Dict[str, List[float]]:
    """Wall-clock seconds per cycle of each configuration, one entry per
    repetition.

    The deployments are built side by side and their blocks of
    ``cycles`` cycles *interleaved*, ``repeats`` times over (see
    :func:`~benchmarks.perf.harness.interleaved`): repetition ``i`` of
    every configuration runs at the same moment and at the same store
    size, since the stores grow in lock-step.
    """
    built = [build_cycle(**config) for config in configs.values()]
    timings = interleaved(repeats, *[
        lambda cycle=cycle: [cycle() for _ in range(cycles)]
        for _deployment, cycle in built
    ])
    for deployment, _cycle in built:
        deployment.shutdown()
    return {
        name: [elapsed / cycles for elapsed in runs]
        for name, runs in zip(configs, timings)
    }


def paired_ratio(measured: List[float], control: List[float]) -> float:
    """The median over repetitions of ``measured[i] / control[i]``.

    Each pair ran back to back, so a change of machine speed moves both
    sides; the median drops the few pairs a change split.  The ratio of
    the two sides' best runs is not steady this way: each best is one
    lucky block, and the two can come from different spells.
    """
    return median(map(truediv, measured, control))


def run_suite(quick: bool) -> BenchReport:
    """Measure the cycle with tracing off, fully on, and sampled, beside
    the pipeline control."""
    report = BenchReport(quick=quick)
    cycles = 5 if quick else 25
    # Enough interleaved repetitions to span several of the machine's
    # speed changes, in either form.
    repeats = 40
    per_cycle = time_cycles(CONFIGS, cycles, repeats)
    off, on, sampled = (
        per_cycle["off"], per_cycle["on"], per_cycle["sampled"])
    pair = time_cycles(CONTROL_PAIR, cycles, repeats)
    report.add(
        "trace_overhead",
        off_ms=min(off) * 1e3,
        on_ms=min(on) * 1e3,
        sampled_ms=min(sampled) * 1e3,
        off_vs_control_ratio=paired_ratio(pair["off"], pair["control"]),
        overhead_ratio=paired_ratio(on, off),
        sampled_overhead_ratio=paired_ratio(sampled, off),
        cycles=cycles,
        repeats=repeats,
    )
    return report


def check_sampled_gate(report: BenchReport, limit: float) -> int:
    """Always-on gate: sampled tracing must stay within ``limit`` of off."""
    ratio = report.results[0].metrics["sampled_overhead_ratio"]
    verdict = "OK" if ratio <= limit else "TOO SLOW"
    print(
        f"sampled tracing overhead: x{ratio:.3f} vs tracing off "
        f"(limit x{limit:.3f}) {verdict}"
    )
    return 0 if ratio <= limit else 1


def check_control_gate(report: BenchReport, max_regression: float) -> int:
    """Always-on gate: tracing off must stay within ``max_regression``
    of the pipeline control timed beside it."""
    ratio = report.results[0].metrics["off_vs_control_ratio"]
    limit = 1.0 + max_regression
    verdict = "OK" if ratio <= limit else "REGRESSION"
    print(
        f"tracing-off cycle: x{ratio:.3f} vs the pipeline control "
        f"(limit x{limit:.3f}) {verdict}"
    )
    return 0 if ratio <= limit else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_trace.json",
                        help="report path (default: ./BENCH_trace.json)")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed tracing-off regression vs the control")
    parser.add_argument("--max-sampled-overhead", type=float, default=1.2,
                        help="allowed sampled-tracing overhead vs tracing off")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    payload = report.to_payload()
    payload["schema"] = SCHEMA
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(report.render())
    print(f"\nwrote {args.output}")
    return max(check_sampled_gate(report, args.max_sampled_overhead),
               check_control_gate(report, args.max_regression))


if __name__ == "__main__":
    sys.exit(main())
