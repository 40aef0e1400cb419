"""Timing utilities and the JSON report writer for the perf suite.

Benchmarks here measure *wall-clock* time of the simulation code itself
(the simulated clock is virtual, so simulated time is free — what we pay
for is Python executing the pipeline).  Every measurement repeats the
workload a few times and keeps the best run, which is the standard way to
strip scheduler noise from microbenchmarks.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from operator import truediv
from statistics import median
from typing import Callable, Dict, List, Tuple

SCHEMA = "teemon.bench.pipeline/1"


@dataclass
class BenchResult:
    """One benchmark's numbers, ready for the JSON report."""

    name: str
    metrics: Dict[str, float]
    notes: str = ""


@dataclass
class BenchReport:
    """Accumulates results and serialises the report."""

    quick: bool = False
    results: List[BenchResult] = field(default_factory=list)

    def add(self, name: str, notes: str = "", **metrics: float) -> BenchResult:
        """Record one benchmark's metrics."""
        result = BenchResult(name=name, metrics=dict(metrics), notes=notes)
        self.results.append(result)
        return result

    def to_payload(self) -> Dict[str, object]:
        """The JSON-serialisable report body."""
        return {
            "schema": SCHEMA,
            "quick": self.quick,
            "python": platform.python_version(),
            "results": {
                r.name: {**r.metrics, **({"notes": r.notes} if r.notes else {})}
                for r in self.results
            },
        }

    def write(self, path: str) -> None:
        """Write the report to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """Human-readable table of every recorded metric."""
        lines = [f"{'benchmark':<28} {'metric':<28} {'value':>14}"]
        lines.append("-" * 72)
        for result in self.results:
            for metric, value in sorted(result.metrics.items()):
                lines.append(f"{result.name:<28} {metric:<28} {value:>14,.3f}")
        return "\n".join(lines)


def best_of(runs: int, workload: Callable[[], None], warmup: int = 1) -> float:
    """Wall-clock seconds of the fastest of ``runs`` executions.

    ``warmup`` untimed executions run first.  The first call after a
    data-structure build pays one-off costs — allocator growth, lazily
    built caches, cold branch predictors — that later calls never see;
    timing it skews a best-of sample enough to flip gate decisions (a
    storage bench's historical ``shard2_wide_ms`` outlier was exactly
    this: the first-timed shard count absorbing warmup that the later
    counts did not pay).
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    for _ in range(warmup):
        workload()
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        workload()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def interleaved(
    runs: int, *workloads: Callable[[], None], warmup: int = 1
) -> Tuple[List[float], ...]:
    """Wall-clock seconds of every run of each workload, with the
    repetitions *interleaved*: one run of each in turn, ``runs`` times.

    A gate on the ratio of two numbers timed in separate blocks measures
    the machine whenever its speed changes between the blocks — a
    CPU-contention burst or a shift in clock speed lands on one side and
    fakes a regression (or hides one).  Alternating the runs makes run
    ``i`` of every workload sample the same moment: their minima see the
    same quiet spells, and run ``i``'s ratio compares like with like.
    ``warmup`` untimed runs of each come first, as in :func:`best_of`.

    The first mover rotates: repetition ``i`` starts with workload
    ``i mod n`` and runs the rest in order after it, so each workload
    leads equally often.  Whichever runs first in a repetition reads about
    2 % slower, so a fixed order would bias every ratio against the
    leader.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if warmup < 0:
        raise ValueError(f"warmup cannot be negative, got {warmup}")
    if not workloads:
        raise ValueError("need at least one workload")
    for _ in range(warmup):
        for workload in workloads:
            workload()
    count = len(workloads)
    timings: Tuple[List[float], ...] = tuple([] for _ in workloads)
    for repetition in range(runs):
        for offset in range(count):
            index = (repetition + offset) % count
            started = time.perf_counter()
            workloads[index]()
            timings[index].append(time.perf_counter() - started)
    return timings


def time_cycles(build: Callable[..., tuple], configs: Dict[str, dict],
                cycles: int, repeats: int) -> Dict[str, List[float]]:
    """Wall-clock seconds per cycle of each configuration, one entry per
    repetition.

    ``build(**config)`` returns ``(deployment, cycle)``.  The deployments
    are built side by side and their blocks of ``cycles`` cycles
    *interleaved*, ``repeats`` times over (see :func:`interleaved`):
    repetition ``i`` of every configuration runs at the same moment and
    at the same store size, since the stores grow in lock-step.
    """
    built = [build(**config) for config in configs.values()]
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
