#!/usr/bin/env python3
"""A/B two revisions on the end-to-end benchmark: ``ab.py BASE [HEAD]``.

Each revision is written out with ``git archive`` into a temporary
directory (``HEAD`` defaults to the working tree, measured in place),
and its own ``benchmarks/e2e/run.py`` runs as a program, so nothing
under ``benchmarks/e2e/`` is shared between the sides.  For every
workload asked:

* ``--pairs`` alternated driver-form pairs (``run.py --workload W
  --seed S --seconds 5 --trace 0``), the first mover alternating; per
  end-to-end metric the median of the per-pair HEAD/BASE ratios, the
  pairs HEAD won, BASE's interquartile range over its median, and
  ``attempted`` on both sides;
* one fixed-step suite pass per side (``--repeats 1``: one untraced
  ``_worker`` run and one traced one, ``"seconds": 0``): both digests,
  ``peak_rss_mb`` at equal steps, and by name every exact per-layer
  metric that differs.

Usage::

    python benchmarks/ab.py BASE [HEAD] [--workload W ...] [--pairs 10]
        [--seed 7] [--output FILE]

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fleet_federated", "single_host_app", "dashboard_read",
             "crash_loop")
#: The driver form's run length, the same on both sides.
DRIVER_SECONDS = 5


def pair_order(pairs: int) -> List[Tuple[str, str]]:
    """Which side runs first in each pair: BASE, then HEAD first, …"""
    return [("base", "head") if index % 2 == 0 else ("head", "base")
            for index in range(pairs)]


def _iqr_share(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(pairs: List[Tuple[dict, dict]],
              better: Dict[str, str]) -> dict:
    """Per metric, over ``(base, head)`` driver-form records: the median
    HEAD/BASE ratio, the pairs HEAD won (strictly better in the metric's
    direction), BASE's median and IQR share; and ``attempted``/
    ``failed`` on both sides."""
    metrics = {}
    for name, direction in better.items():
        base = [b["metrics"][name]["value"] for b, _h in pairs]
        head = [h["metrics"][name]["value"] for _b, h in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        metrics[name] = {
            "better": direction,
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "median_ratio": statistics.median(
                h / b for b, h in zip(base, head) if b),
            "wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "base_iqr_share": _iqr_share(base),
        }
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "attempted": {"base": [b["attempted"] for b, _h in pairs],
                      "head": [h["attempted"] for _b, h in pairs]},
        "failed": {"base": [b["failed"] for b, _h in pairs],
                   "head": [h["failed"] for _b, h in pairs]},
        "correct": all(b["correct"] and h["correct"] for b, h in pairs),
    }


def exact_differences(base: dict, head: dict) -> Dict[str, list]:
    """Exact per-layer metrics whose values differ between two suite
    entries of one workload: name -> [base, head]."""
    return {
        name: [cell["value"], head["per_layer"][name]["value"]]
        for name, cell in base["per_layer"].items()
        if cell["exact"] and cell["value"] != head["per_layer"][name]["value"]
    }


# ----------------------------------------------------------------------
def materialise(revision: str, into: Path) -> Path:
    """``revision``'s committed files under ``into`` (``git archive``)."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=str(ROOT),
        stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into


def _run(tree: Path, args: List[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=str(tree), stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{tree}: run.py {' '.join(args)} exited "
                         f"{done.returncode}")
    return done.stdout


def driver_run(tree: Path, workload: str, seed: int) -> dict:
    """One driver-form measurement: its last output line."""
    out = _run(tree, ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(DRIVER_SECONDS), "--trace", "0"])
    return json.loads(out.strip().splitlines()[-1])


def fixed_run(tree: Path, side: str, workload: str, seed: int,
              scratch: Path) -> dict:
    """One fixed-step suite pass: the report entry of ``workload``."""
    output = scratch / f"fixed.{side}.{workload}.json"
    _run(tree, ["--workload", workload, "--seed", str(seed), "--repeats",
                "1", "--output", str(output)])
    return json.loads(output.read_text())["workloads"][workload]


def ab_workload(trees: Dict[str, Path], workload: str, seed: int,
                pairs: int, fixed: bool, scratch: Path,
                better: Dict[str, str],
                runner: Callable = driver_run) -> dict:
    records: List[Tuple[dict, dict]] = []
    for order in pair_order(pairs):
        got = {side: runner(trees[side], workload, seed)
               for side in order}
        records.append((got["base"], got["head"]))
    result = {"workload": workload, "seed": seed,
              "driver": summarize(records, better)}
    if fixed:
        base, head = (fixed_run(trees[side], side, workload, seed, scratch)
                      for side in ("base", "head"))
        result["fixed"] = {
            "steps": [base["steps"], head["steps"]],
            "digests": [base["digest"], head["digest"]],
            "peak_rss_mb": [base["end_to_end"]["peak_rss_mb"]["values"][0],
                            head["end_to_end"]["peak_rss_mb"]["values"][0]],
            "exact_differences": exact_differences(base, head),
        }
    return result


def render(result: dict) -> str:
    driver = result["driver"]
    lines = [f"== {result['workload']} seed {result['seed']}: "
             f"{driver['pairs']} alternated pairs, correct "
             f"{driver['correct']}",
             f"   {'metric':<14}{'better':<8}{'base':>12}{'head':>12}"
             f"{'ratio':>8}{'wins':>7}{'base IQR':>10}"]
    for name, cell in driver["metrics"].items():
        lines.append(
            f"   {name:<14}{cell['better']:<8}{cell['base_median']:>12.4f}"
            f"{cell['head_median']:>12.4f}{cell['median_ratio']:>8.3f}"
            f"{cell['wins']:>4}/{driver['pairs']:<2}"
            f"{cell['base_iqr_share']:>10.1%}")
    lines.append(f"   attempted base {driver['attempted']['base']}")
    lines.append(f"   attempted head {driver['attempted']['head']}")
    lines.append(f"   failed base {driver['failed']['base']} head "
                 f"{driver['failed']['head']}")
    fixed = result.get("fixed")
    if fixed:
        lines.append(f"   fixed {fixed['steps']} steps: digests "
                     f"{fixed['digests'][0]} / {fixed['digests'][1]}, "
                     f"peak_rss_mb {fixed['peak_rss_mb'][0]:.2f} -> "
                     f"{fixed['peak_rss_mb'][1]:.2f}")
        moved = fixed["exact_differences"]
        lines.append(f"   exact metrics that differ: {len(moved)}")
        for name, (base, head) in moved.items():
            lines.append(f"     {name}: {base} -> {head}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="git revision of the parent side")
    parser.add_argument("head", nargs="?",
                        help="git revision of the change (default: the "
                             "working tree)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", help="write the results as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="teemon-ab-") as temp:
        scratch = Path(temp)
        trees = {"base": materialise(args.base, scratch / "base")}
        if args.head is None:
            trees["head"] = ROOT
        else:
            trees["head"] = materialise(args.head, scratch / "head")
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        results = []
        for workload in args.workload or list(WORKLOADS):
            result = ab_workload(trees, workload, args.seed, args.pairs,
                                 fixed=True, scratch=scratch, better=better)
            print(render(result), flush=True)
            results.append(result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"base": args.base, "head": args.head or "worktree",
                       "results": results}, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
