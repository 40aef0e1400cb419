"""The worker side: build a workload, warm it up, time its steps.

One worker process runs one workload once.  Everything before the timed
window — build, preload, the first 30 virtual seconds (series creation,
label interning, first frames) and a ``gc.collect()`` — is ``setup_s``.
The window is a closed loop of steps, each timed: at least the
workload's fixed step count, and longer only if that took less than
``seconds`` of wall time, so for a fixed seed the work (and every count
and digest) repeats exactly unless the stack got much faster.

**Machine speed.**  The sandbox this runs in flips between two CPU
speeds about 1.5x apart, every 0.3 to 15 s (a neighbour on the same
core), which swings a 10 s wall-clock window by +-15 % from run to run —
wider than any bound worth setting.  So a fixed ~0.4 ms computation, the
*probe*, is timed before and after every step (outside the step's own
timer; a few passes after a long step), and every timed interval is
reported scaled by ``NOMINAL_PROBE_S / probe time around it``: the time
the interval would have taken on a machine that always runs the probe in
``NOMINAL_PROBE_S`` (this box in its fast mode, to within a few
percent).  Raw wall time is kept beside it (``window_raw_s``,
``machine_speed``).  Span self times in the trace are raw seconds.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from typing import Dict, List, Optional

from benchmarks.e2e.layers import GAUGES
from benchmarks.e2e.tracing import SpanRecorder

#: Steps whose spans are written out in full; later steps only aggregate.
FULL_SPAN_STEPS = 20
#: What the probe takes on the nominal machine.
NOMINAL_PROBE_S = 0.40e-3


class Workload:
    """What the harness needs from a workload.

    The constructor builds the deployment from ``seed`` and warms it up;
    ``quick`` selects the smoke-test sizes.
    """

    #: Fixed step count of the timed window: (full, quick).
    STEPS = (0, 0)

    def step(self, index: int) -> None:
        """One closed-loop step (a scrape interval, a refresh)."""
        raise NotImplementedError

    def work(self) -> float:
        """Units of work completed so far (see ``spec.WORK_UNITS``)."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Raw counts from the layers' public stats (``layers.py``)."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Check outputs; returns ``attempted``, ``failed``, ``checks``
        (name -> bool), ``digest`` and ``level`` (workload-level
        metrics)."""
        raise NotImplementedError


def probe(passes: int = 1) -> float:
    """Seconds one pass of a fixed mix of dict, tuple and str work takes
    right now (the mean over ``passes``)."""
    began = time.perf_counter()
    for _ in range(passes):
        table: Dict[int, tuple] = {}
        for i in range(3500):
            table[i & 63] = (i, str(i))
    return (time.perf_counter() - began) / passes


def nearest_rank(values: List[float], share: float) -> float:
    """Nearest-rank percentile: at 120 values, p90 leaves 12 beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_workload(cls, seed: int, quick: bool, seconds: float,
                 recorder: Optional[SpanRecorder] = None,
                 setup_only: bool = False) -> dict:
    """Run one workload once; returns the worker's result record."""
    probe()  # first call pays one-off costs
    before_s = probe()
    began = time.perf_counter()
    workload = cls(seed, quick)
    gc.collect()
    setup_raw_s = time.perf_counter() - began
    around_s = (before_s + probe()) / 2
    setup_s = setup_raw_s * NOMINAL_PROBE_S / around_s
    if setup_only:
        return {"setup_s": setup_s}

    fixed_steps = cls.STEPS[1 if quick else 0]
    before = workload.counters()
    work_before = workload.work()
    raw_s: List[float] = []
    speeds: List[float] = []
    spent_s = 0.0
    index = 0
    last_probe_s = probe()
    while index < fixed_steps or spent_s < seconds:
        if recorder is not None:
            recorder.keep_spans = index < FULL_SPAN_STEPS
            recorder.open_step()
        step_began = time.perf_counter()
        workload.step(index)
        elapsed_s = time.perf_counter() - step_began
        if recorder is not None:
            elapsed_s = recorder.close_step()
        # Long steps can afford (and need) a steadier reading: one pass
        # per 20 ms of step, at most five.
        next_probe_s = probe(min(5, max(1, int(elapsed_s / 0.020))))
        speeds.append(NOMINAL_PROBE_S * 2 / (last_probe_s + next_probe_s))
        last_probe_s = next_probe_s
        raw_s.append(elapsed_s)
        spent_s += elapsed_s
        index += 1
    step_s = [raw * speed for raw, speed in zip(raw_s, speeds)]
    window_s = sum(step_s)

    after = workload.counters()
    counters = {
        key: value if key in GAUGES else value - before.get(key, 0)
        for key, value in after.items()
    }
    outcome = workload.finish()
    result = {
        "steps": index,
        "setup_s": setup_s,
        "window_s": window_s,
        "window_raw_s": spent_s,
        "machine_speed": window_s / spent_s,
        "work": workload.work() - work_before,
        "step_ms_p50": statistics.median(step_s) * 1e3,
        "step_ms_p90": nearest_rank(step_s, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": counters,
        **outcome,
    }
    if recorder is not None:
        result["spans"] = {
            name: {"calls": int(entry[0]), "total_s": entry[1],
                   "self_s": entry[2]}
            for name, entry in recorder.aggregates.items()
        }
        result["measures"] = dict(recorder.measures)
    return result


def write_trace(path: str, workload: str, seed: int, result: dict,
                recorder: SpanRecorder) -> None:
    """``trace.<workload>.json``: aggregates for the whole window, full
    spans ``[id, name, start_s, end_s, parent_id]`` for its first steps
    (``parent_id`` -1 marks a step's root ``driver`` span; times are raw
    seconds since the first step began)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload,
            "seed": seed,
            "steps": result["steps"],
            "window_raw_s": result["window_raw_s"],
            "full_span_steps": FULL_SPAN_STEPS,
            "aggregates": result["spans"],
            "spans": recorder.spans,
        }, handle)
        handle.write("\n")
