"""The perf harness's interleaved timer: call order and bookkeeping."""

import pytest

from benchmarks.perf import harness
from benchmarks.perf.harness import interleaved


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
