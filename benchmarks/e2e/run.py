#!/usr/bin/env python3
"""Command line of the end-to-end benchmark.

Three ways in:

* the suite — ``python -m benchmarks.e2e [--seed 7] [--repeats 3]
  [--workload NAME] [--quick] [--output FILE]``: every workload
  ``--repeats`` times untraced plus one traced pass, each in a fresh
  interpreter; prints every metric with its unit and writes the report
  ``compare`` reads;
* one measurement — ``run.py --workload NAME --seed N --seconds S
  --trace 0|1``: the form ``BENCHMARK.json`` names; the last line of
  output is one JSON object with the end-to-end metrics (``--trace 0``)
  or the per-layer metrics (``--trace 1``);
* ``compare A.json B.json`` — see ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import spec  # noqa: E402 - after the path bootstrap
from benchmarks.e2e.compare import compare_files, quartiles  # noqa: E402

SCHEMA = "teemon.bench.e2e/1"
OUT_DIR = ROOT / ".e2e_out"
#: Extra build + warm-up runs behind ``setup_s`` in a single measurement
#: (the reported value is the median of 1 + this many).
EXTRA_SETUPS = 2
WORKER_TIMEOUT_S = 600


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _workload_classes() -> Dict[str, type]:
    from benchmarks.e2e.crash_loop import CrashLoop
    from benchmarks.e2e.dashboard_read import DashboardRead
    from benchmarks.e2e.fleet_federated import FleetFederated
    from benchmarks.e2e.single_host_app import SingleHostApp

    return {
        "fleet_federated": FleetFederated,
        "single_host_app": SingleHostApp,
        "dashboard_read": DashboardRead,
        "crash_loop": CrashLoop,
    }


def worker_main(job_text: str) -> int:
    """Run one workload once in this process; print its record."""
    from benchmarks.e2e import tracing
    from benchmarks.e2e.harness import run_workload, write_trace

    job = json.loads(job_text)
    # All four modules are imported before tracing is installed, so every
    # import site of a wrapped function exists when it is patched.
    cls = _workload_classes()[job["workload"]]
    recorder = None
    if job["trace"]:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    result = run_workload(cls, job["seed"], job["quick"], job["seconds"],
                          recorder, setup_only=job["setup_only"])
    if recorder is not None:
        OUT_DIR.mkdir(exist_ok=True)
        write_trace(str(OUT_DIR / f"trace.{job['workload']}.json"),
                    job["workload"], job["seed"], result, recorder)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Runner side
# ----------------------------------------------------------------------
def run_worker(workload: str, seed: int, seconds: float, quick: bool = False,
               trace: bool = False, setup_only: bool = False) -> dict:
    """One workload run in a fresh interpreter with a scrubbed
    environment: fixed hash seed, and none of the test-profile variables
    that production config reads."""
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("TEEMON_TEST_PROFILE", "HYPOTHESIS_PROFILE")
    }
    env["PYTHONHASHSEED"] = "0"
    job = json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "quick": quick, "trace": trace, "setup_only": setup_only,
    })
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "_worker", job],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: worker exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end_values(record: dict, setup_s: float) -> Dict[str, float]:
    """The bounded metrics of one untraced run (times are normalised
    to the nominal machine speed, see ``harness.py``)."""
    return {
        "setup_s": setup_s,
        "work_per_s": record["work"] / record["window_s"],
        "step_ms_p50": record["step_ms_p50"],
        "step_ms_p90": record["step_ms_p90"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_values(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    """Every per-layer metric: spans and counts from the traced run,
    workload-level results from the untraced ones (tracing inflates
    wall-clock), trace quality from the two together."""
    spans, counts = traced["spans"], traced["counters"]
    measures = traced["measures"]
    values: Dict[str, float] = {}
    for span in spec.SPANS:
        entry = spans.get(span, {"calls": 0, "self_s": 0.0})
        values[f"{span}.calls"] = entry["calls"]
        values[f"{span}.self_s"] = entry["self_s"]

    derived = {
        "scrape.bytes_parsed": measures.get("openmetrics.parse", 0),
        "tsdb.bytes_per_sample": _ratio(
            counts.get("tsdb.memory_bytes", 0), counts.get("tsdb.samples", 0)
        ),
        "remote_write.bytes_per_sample": _ratio(
            counts.get("remote_write.bytes", 0),
            counts.get("remote_write.samples_shipped", 0),
        ),
        "query.plan_cache_hit_ratio": _ratio(
            counts.get("query.plan_cache_hits", 0),
            counts.get("query.plan_cache_hits", 0)
            + counts.get("query.plan_cache_misses", 0),
        ),
        "query.samples_selected_per_query": _ratio(
            measures.get("tsdb.select", 0),
            values["query.instant.calls"] + values["query.range.calls"],
        ),
    }
    for name, _unit, _better in spec.COUNTERS:
        values[name] = derived.get(name, counts.get(name, 0))
    for name, _unit, _better in spec.LEVEL:
        readings = [u["level"][name] for u in untraced if name in u["level"]]
        values[name] = statistics.median(readings) if readings else 0.0
    values["failed_share"] = statistics.median(
        u["failed"] / u["attempted"] for u in untraced
    )
    plain_step_s = statistics.median(
        u["window_s"] / u["steps"] for u in untraced
    )
    values["trace_overhead_ratio"] = (
        traced["window_s"] / traced["steps"] / plain_step_s
    )
    values["unattributed_share"] = (
        values["driver.self_s"] + values["simkernel.clock.run.self_s"]
    ) / traced["window_raw_s"]
    values["machine_speed"] = statistics.median(
        u["machine_speed"] for u in untraced
    )
    return values


def top_self(traced: dict, count: int = 3) -> List[List]:
    """The layers with the largest self-time share of the window."""
    ranked = sorted(
        ((name, entry["self_s"] / traced["window_raw_s"])
         for name, entry in traced["spans"].items()),
        key=lambda pair: -pair[1],
    )
    return [[name, share] for name, share in ranked[:count]]


def _failed_checks(records: List[dict]) -> List[str]:
    return sorted({
        name for record in records
        for name, ok in record["checks"].items() if not ok
    })


# ----------------------------------------------------------------------
# One measurement (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def measure_once(workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool = False) -> int:
    plain = run_worker(workload, seed, seconds, quick=quick)
    records = [plain]
    units = {name: unit for name, unit, _b in spec.per_layer()}
    units.update({name: unit for name, unit, _b, _bound in spec.END_TO_END})
    if trace:
        traced = run_worker(workload, seed, seconds, quick=quick, trace=True)
        records.append(traced)
        values = per_layer_values(traced, [plain])
    else:
        setups = [plain["setup_s"]] + [
            run_worker(workload, seed, seconds, quick=quick,
                       setup_only=True)["setup_s"]
            for _ in range(EXTRA_SETUPS)
        ]
        values = end_to_end_values(plain, statistics.median(setups))
    broken = _failed_checks(records)
    for name in broken:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not broken,
        "attempted": int(plain["attempted"]),
        "failed": int(plain["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_suite(workloads: List[str], seed: int, repeats: int, quick: bool,
              output: Optional[str]) -> int:
    report = {
        "schema": SCHEMA, "seed": seed, "repeats": repeats, "quick": quick,
        "python": platform.python_version(), "workloads": {},
    }
    healthy = True
    for workload in workloads:
        plain = [run_worker(workload, seed, 0.0, quick=quick)
                 for _ in range(repeats)]
        traced = run_worker(workload, seed, 0.0, quick=quick, trace=True)
        records = plain + [traced]
        digests = sorted({record["digest"] for record in records})
        broken = _failed_checks(records)
        failed = max(record["failed"] for record in records)
        samples = [end_to_end_values(r, r["setup_s"]) for r in plain]
        layer_values = per_layer_values(traced, plain)
        entry = {
            "why": spec.WORKLOADS[workload],
            "steps": plain[0]["steps"],
            "digest": digests[0] if len(digests) == 1 else None,
            "digests": digests,
            "attempted": plain[0]["attempted"],
            "failed": failed,
            "checks": plain[0]["checks"],
            "end_to_end": {
                name: {"unit": unit, "better": better, "bound": bound,
                       "values": [sample[name] for sample in samples]}
                for name, unit, better, bound in spec.END_TO_END
            },
            "per_layer": {
                name: {"unit": unit, "better": better,
                       "exact": spec.is_exact(name),
                       "value": layer_values[name]}
                for name, unit, better in spec.per_layer()
            },
            "top_self": top_self(traced),
        }
        report["workloads"][workload] = entry
        print_workload(workload, entry, repeats, traced)
        if broken or failed or len(digests) != 1:
            healthy = False
            for name in broken:
                print(f"  CHECK FAILED: {name}")
            if len(digests) != 1:
                print(f"  NOT DETERMINISTIC: digests {digests}")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        print(f"report written to {output}")
    return 0 if healthy else 1


def print_workload(workload: str, entry: dict, repeats: int,
                   traced: dict) -> None:
    checks = entry["checks"]
    print(f"== {workload}: {entry['steps']} steps, {repeats} repeats, "
          f"digest {entry['digest']}")
    print(f"   work unit: {spec.WORK_UNITS[workload]}")
    print(f"   checks {sum(checks.values())}/{len(checks)} ok, "
          f"attempted {entry['attempted']}, failed {entry['failed']}")
    print(f"   {'end-to-end metric':<34}{'unit':<7}{'median':>14}"
          f"{'q1':>14}{'q3':>14}{'n':>4}  bound")
    for name, cell in entry["end_to_end"].items():
        q1, median, q3 = quartiles(cell["values"])
        print(f"   {name:<34}{cell['unit']:<7}{median:>14.4f}{q1:>14.4f}"
              f"{q3:>14.4f}{len(cell['values']):>4}  {cell['bound']:.0%}")
    layers_text = ", ".join(
        f"{name} {share:.1%}" for name, share in entry["top_self"]
    )
    print(f"   traced pass: window {traced['window_raw_s']:.3f} s raw; "
          f"top self time: {layers_text}")
    print(f"   {'per-layer metric':<34}{'unit':<7}{'value':>14}")
    for name, cell in entry["per_layer"].items():
        print(f"   {name:<34}{cell['unit']:<7}{cell['value']:>14.6g}")
    print(f"   trace written to {OUT_DIR / f'trace.{workload}.json'}")
    print()


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["_worker"]:
        return worker_main(argv[1])
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(argv[1], argv[2])

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes (seconds, not minutes)")
    parser.add_argument("--output", help="write the suite report here")
    parser.add_argument("--seconds", type=float,
                        help="single measurement: least wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single measurement: 1 prints per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return measure_once(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.quick)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    return run_suite(names, args.seed, args.repeats, args.quick, args.output)


if __name__ == "__main__":
    sys.exit(main())
