"""``compare A.json B.json``: the A/A and A/B tool.

Reads two suite reports (``--output`` of ``python -m benchmarks.e2e``)
and prints, per workload and metric, both medians with their quartiles,
the bound, and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — a run-to-run spread (q3 - q1 over the median, either
  side) is wider than the bound, so the difference cannot be read —
  unless every run of B is better than every run of A, which is ``ok``;
* exact metrics (counts, virtual time) must be identical, else ``worse``.

A digest mismatch means the two reports did different work; that is an
error and the workload's wall-clock metrics are not compared at all.
Exits non-zero on any ``worse`` or digest error.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Tuple


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one bounded metric."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    if sign * (median_b - median_a) > bound * abs(median_a):
        return "worse"
    if max(_spread(a), _spread(b)) > bound:
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "ok"
        return "unresolved"
    return "ok"


def _cell(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:>12.4f} [{q1:.4f}, {q3:.4f}]"


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        report_b = json.load(handle)
    if (report_a["seed"], report_a["quick"]) != (
            report_b["seed"], report_b["quick"]):
        print("error: the reports were made with different --seed/--quick")
        return 2
    bad = 0
    for workload, a in report_a["workloads"].items():
        b = report_b["workloads"].get(workload)
        if b is None:
            print(f"== {workload}: only in {path_a}")
            continue
        print(f"== {workload}")
        if a["digest"] is None or a["digest"] != b["digest"]:
            print(f"   error: digest mismatch ({a['digests']} vs "
                  f"{b['digests']}): different work, wall-clock not "
                  f"compared")
            bad += 1
            continue
        print(f"   digest {a['digest']} on both sides")
        for name, cell_a in a["end_to_end"].items():
            cell_b = b["end_to_end"][name]
            status = verdict(cell_a["values"], cell_b["values"],
                             cell_a["better"], cell_a["bound"])
            bad += status == "worse"
            print(f"   {name:<22}{cell_a['unit']:<5}"
                  f"A {_cell(cell_a['values'])}  "
                  f"B {_cell(cell_b['values'])}  "
                  f"bound {cell_a['bound']:.0%}  {status}")
        exact = [name for name, cell in a["per_layer"].items()
                 if cell["exact"]]
        differing = [
            name for name in exact
            if a["per_layer"][name]["value"] != b["per_layer"][name]["value"]
        ]
        for name in differing:
            bad += 1
            print(f"   {name:<34} A {a['per_layer'][name]['value']!r}  "
                  f"B {b['per_layer'][name]['value']!r}  exact  worse")
        print(f"   {len(exact) - len(differing)} of {len(exact)} exact "
              f"per-layer metrics identical")
        if b["per_layer"]["failed_share"]["value"] > 0:
            print(f"   failed_share is "
                  f"{b['per_layer']['failed_share']['value']!r} in B")
        window_a = sum(cell["value"] for name, cell in a["per_layer"].items()
                       if name.endswith(".self_s"))
        window_b = sum(cell["value"] for name, cell in b["per_layer"].items()
                       if name.endswith(".self_s"))
        print("   self time, largest layers in A (traced pass, one run "
              "each; no verdict):")
        layers = sorted(
            (name for name in a["per_layer"] if name.endswith(".self_s")),
            key=lambda name: -a["per_layer"][name]["value"],
        )[:5]
        for name in layers:
            value_a = a["per_layer"][name]["value"]
            value_b = b["per_layer"][name]["value"]
            print(f"   {name:<34} A {value_a:>9.4f} s "
                  f"({value_a / window_a:.1%})  B {value_b:>9.4f} s "
                  f"({value_b / window_b:.1%})")
        for name in ("recovery_ms_p50", "trace_overhead_ratio",
                     "unattributed_share", "machine_speed"):
            print(f"   {name:<34} A {a['per_layer'][name]['value']:>9.4f}    "
                  f"B {b['per_layer'][name]['value']:>9.4f}")
    print("result:", "worse or mismatched" if bad else "no regression")
    return 1 if bad else 0
