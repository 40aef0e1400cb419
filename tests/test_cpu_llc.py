"""LLC model unit tests."""

import pytest

from repro.errors import SimulationError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.cpu import LlcModel
from repro.simkernel.hooks import HookRegistry


def _llc():
    hooks = HookRegistry()
    return LlcModel(VirtualClock(), hooks), hooks


def test_account_exact_counts():
    llc, hooks = _llc()
    llc.account(references=500, misses=20, pid=7)
    assert llc.stats.references == 500
    assert llc.stats.misses == 20
    assert hooks.fire_count("PERF_COUNT_HW_CACHE_REFERENCES") == 500
    assert hooks.fire_count("PERF_COUNT_HW_CACHE_MISSES") == 20


def test_account_invalid_rejected():
    llc, _hooks = _llc()
    with pytest.raises(SimulationError):
        llc.account(references=5, misses=10)


def test_miss_ratio_stat():
    llc, _hooks = _llc()
    llc.account(references=100, misses=25)
    assert llc.stats.miss_ratio() == 0.25
