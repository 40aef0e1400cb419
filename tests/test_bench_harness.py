"""The perf harness's interleaved timer: call order, bookkeeping and
the paired ratio the gates read."""

import pytest

from benchmarks.perf import harness
from benchmarks.perf.harness import interleaved, paired_ratio, time_cycles


def test_interleaved_rotates_the_first_mover(monkeypatch):
    # A fake clock each workload advances by its own cost, so every
    # timing can be traced back to the workload it belongs to.
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
    calls = []

    def workload(name, cost):
        def run():
            calls.append(name)
            now[0] += cost
        return run

    timings = interleaved(
        4, workload("a", 1.0), workload("b", 2.0), workload("c", 4.0),
        warmup=1,
    )
    assert calls == list(
        "abc"      # warmup, in the given order
        "abc"      # repetition 0
        "bca"      # repetition 1
        "cab"      # repetition 2
        "abc"      # repetition 3
    )
    assert timings == ([1.0] * 4, [2.0] * 4, [4.0] * 4)


def test_interleaved_rejects_an_empty_or_negative_plan():
    with pytest.raises(ValueError):
        interleaved(0, lambda: None)
    with pytest.raises(ValueError):
        interleaved(1, lambda: None, warmup=-1)
    with pytest.raises(ValueError):
        interleaved(1)


def test_paired_ratio_pairs_the_runs_of_one_repetition(monkeypatch):
    # "on" costs 1.5x "off" at any machine speed.  The fake clock's speed
    # moves between repetitions, and once inside one (repetition 2, where
    # "on" leads): the best-of ratio follows that split pair, the paired
    # median does not.
    now = [0.0]
    monkeypatch.setattr(harness.time, "perf_counter", lambda: now[0])
    speeds = [1.0, 1.0,            # warmup
              1.0, 1.0, 2.0, 2.0, 0.5, 3.0, 2.0, 2.0, 1.0, 1.0]
    shut = []

    class Deployment:
        def __init__(self, name):
            self.name = name

        def shutdown(self):
            shut.append(self.name)

    def build(name, cost):
        def cycle():
            now[0] += cost * speeds.pop(0)
        return Deployment(name), cycle

    configs = {"on": {"name": "on", "cost": 1.5},
               "off": {"name": "off", "cost": 1.0}}
    per_cycle = time_cycles(build, configs, cycles=1, repeats=5)
    assert speeds == [] and shut == ["on", "off"]
    assert per_cycle == {"on": [1.5, 3.0, 0.75, 3.0, 1.5],
                         "off": [1.0, 2.0, 3.0, 2.0, 1.0]}
    on, off = per_cycle["on"], per_cycle["off"]
    assert paired_ratio(on, off) == 1.5
    assert min(on) / min(off) == 0.75
