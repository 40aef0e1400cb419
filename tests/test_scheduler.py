"""Scheduler unit tests."""

import pytest

from repro.errors import SchedulerError


def _thread(kernel, name="app"):
    process = kernel.spawn_process(name)
    return next(iter(process.threads.values()))


def test_account_switches_aggregate(kernel):
    process = kernel.spawn_process("batch")
    kernel.scheduler.account_switches(process.pid, 250)
    assert kernel.scheduler.total_switches == 250
    assert kernel.hooks.fire_count("sched:sched_switches") == 250
    assert kernel.hooks.fire_count("PERF_COUNT_SW_CONTEXT_SWITCHES") == 250


def test_account_switches_zero_is_noop(kernel):
    kernel.scheduler.account_switches(0, 0)
    assert kernel.scheduler.total_switches == 0


def test_account_cpu_time_aggregate(kernel):
    thread = _thread(kernel)
    kernel.scheduler.account_cpu_time(thread, 10_000)
    assert thread.cpu_time_ns == 10_000
    assert kernel.scheduler.cpu(0).busy_ns == 10_000


def test_bad_cpu_id_rejected(kernel):
    with pytest.raises(SchedulerError):
        kernel.scheduler.cpu(999)


def test_zero_cpus_rejected():
    from repro.simkernel.clock import VirtualClock
    from repro.simkernel.hooks import HookRegistry
    from repro.simkernel.scheduler import Scheduler

    with pytest.raises(SchedulerError):
        Scheduler(VirtualClock(), HookRegistry(), num_cpus=0)
