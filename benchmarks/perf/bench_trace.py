"""Tracing-overhead benchmark: the pipeline with tracing off, on, sampled.

Measures the same full scrape → rule-evaluation → render cycle as
``bench_pipeline``'s ``scrape_cycle``, three ways:

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
cycles interleaved.  ``*_ms`` is each configuration's best early block;
the ratios are medians of per-repetition ratios (:func:`paired_ratio`),
so a change of machine speed between blocks cannot fake or hide
overhead.

Two gates:

* ``sampled_overhead_ratio <= --max-sampled-overhead`` (default 1.2) is
  **always on** — the bar that sampled tracing is cheap enough to leave
  enabled in production;
* with ``--baseline BENCH_pipeline.json`` the tracing-off cycle time is
  additionally compared against the baseline report's
  ``scrape_cycle.cycle_ms`` and the script exits non-zero if it
  regressed more than ``--max-regression`` (default 5%) — the CI gate
  that keeps tracing free when nobody asked for it.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_trace [--quick]
        [--output BENCH_trace.json] [--max-sampled-overhead 1.2]
        [--baseline BENCH_pipeline.json] [--max-regression 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import truediv
from statistics import median
from typing import Dict, List

from benchmarks.perf.harness import BenchReport, interleaved

from repro.experiments.common import make_sgx_host
from repro.simkernel.clock import seconds
from repro.teemon import TeemonConfig, deploy

SCHEMA = "teemon.bench.trace/1"


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


def build_cycle(**config_kwargs):
    """A deployment and its full pipeline cycle, warmed up once."""
    kernel, _driver = make_sgx_host(seed=7)
    deployment = deploy(
        kernel, TeemonConfig(**config_kwargs), start=False
    )
    session = deployment.session

    def cycle() -> None:
        kernel.clock.advance(seconds(5))
        deployment.scrape_manager.scrape_once()
        deployment.rule_evaluator.evaluate_all_once()
        session.render("sgx")

    cycle()  # warm-up: first scrape creates every series
    return deployment, cycle


def time_cycles(cycles: int, repeats: int) -> Dict[str, List[float]]:
    """Wall-clock seconds per cycle of each configuration, one entry per
    repetition.

    The three deployments are built side by side and their blocks of
    ``cycles`` cycles *interleaved*, ``repeats`` times over (see
    :func:`~benchmarks.perf.harness.interleaved`): repetition ``i`` of
    every configuration runs at the same moment and at the same store
    size, since the stores grow in lock-step.
    """
    built = [build_cycle(**config) for config in CONFIGS.values()]
    timings = interleaved(repeats, *[
        lambda cycle=cycle: [cycle() for _ in range(cycles)]
        for _deployment, cycle in built
    ])
    for deployment, _cycle in built:
        deployment.shutdown()
    return {
        name: [elapsed / cycles for elapsed in runs]
        for name, runs in zip(CONFIGS, timings)
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
    """Measure the cycle with tracing off, fully on, and sampled."""
    report = BenchReport(quick=quick)
    cycles = 5 if quick else 25
    # Enough interleaved repetitions to span several of the machine's
    # speed changes even in the quick form.
    repeats = 40 if quick else 12
    # The *_ms figures are each side's best of its first one (quick) or
    # three blocks after a warm-up block: the form the 5 % baseline gate
    # on ``off_ms`` is set for.
    best_of_first = 1 if quick else 3
    per_cycle = time_cycles(cycles, repeats)
    off, on, sampled = (
        per_cycle["off"], per_cycle["on"], per_cycle["sampled"])
    report.add(
        "trace_overhead",
        off_ms=min(off[:best_of_first]) * 1e3,
        on_ms=min(on[:best_of_first]) * 1e3,
        sampled_ms=min(sampled[:best_of_first]) * 1e3,
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


def check_baseline(report: BenchReport, baseline_path: str,
                   max_regression: float) -> int:
    """Gate: tracing-off must stay within ``max_regression`` of baseline."""
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_ms = baseline["results"]["scrape_cycle"]["cycle_ms"]
    off_ms = report.results[0].metrics["off_ms"]
    ratio = off_ms / baseline_ms
    limit = 1.0 + max_regression
    verdict = "OK" if ratio <= limit else "REGRESSION"
    print(
        f"tracing-off cycle: {off_ms:.3f}ms vs baseline "
        f"{baseline_ms:.3f}ms -> x{ratio:.3f} (limit x{limit:.3f}) {verdict}"
    )
    return 0 if ratio <= limit else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default="BENCH_trace.json",
                        help="report path (default: ./BENCH_trace.json)")
    parser.add_argument("--baseline", default=None,
                        help="BENCH_pipeline.json to gate the off-path against")
    parser.add_argument("--max-regression", type=float, default=0.05,
                        help="allowed tracing-off regression vs baseline")
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
    status = check_sampled_gate(report, args.max_sampled_overhead)
    if args.baseline:
        status = max(
            status,
            check_baseline(report, args.baseline, args.max_regression),
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
