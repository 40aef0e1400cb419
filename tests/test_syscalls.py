"""Syscall table unit tests."""

import pytest

from repro.errors import SyscallError
from repro.simkernel.syscalls import DEFAULT_COSTS_NS, SYSCALL_NUMBERS, SyscallTable


def test_numbers_follow_x86_64():
    assert SyscallTable.number_of("read") == 0
    assert SyscallTable.number_of("write") == 1
    assert SyscallTable.number_of("futex") == 202
    assert SyscallTable.number_of("clock_gettime") == 228


def test_name_number_roundtrip():
    for name in SYSCALL_NUMBERS:
        assert SyscallTable.name_of(SyscallTable.number_of(name)) == name


def test_unknown_name_rejected():
    with pytest.raises(SyscallError):
        SyscallTable.number_of("frobnicate")


def test_unknown_number_rejected():
    with pytest.raises(SyscallError):
        SyscallTable.name_of(9999)


def test_every_syscall_has_a_cost():
    assert set(DEFAULT_COSTS_NS) == set(SYSCALL_NUMBERS)


def test_clock_gettime_is_vdso_cheap():
    # The whole Figure 6 story depends on clock_gettime being nearly free
    # natively and expensive only through enclave transitions.
    assert SyscallTable.cost_ns("clock_gettime") < SyscallTable.cost_ns("read")


def test_dispatch_fires_enter_and_exit(kernel):
    process = kernel.spawn_process("app")
    order = []
    kernel.hooks.attach("raw_syscalls:sys_enter", lambda c: order.append("enter"))
    kernel.hooks.attach("raw_syscalls:sys_exit", lambda c: order.append("exit"))
    kernel.syscalls.dispatch("read", process.pid, count=7)
    assert kernel.hooks.fire_count("raw_syscalls:sys_enter") == 7
    assert kernel.hooks.fire_count("raw_syscalls:sys_exit") == 7
    assert order == ["enter", "exit"]


def test_dispatch_context_carries_number_and_name(kernel):
    process = kernel.spawn_process("app")
    seen = []
    kernel.hooks.attach("raw_syscalls:sys_enter", seen.append)
    kernel.syscalls.dispatch("futex", process.pid, count=2)
    assert seen[0].get("syscall_nr") == 202
    assert seen[0].get("syscall_name") == "futex"
    assert seen[0].get("pid") == process.pid


def test_dispatch_returns_total_cost(kernel):
    cost = kernel.syscalls.dispatch("read", 1, count=10)
    assert cost == 10 * SyscallTable.cost_ns("read")


def test_dispatch_zero_count_noop(kernel):
    assert kernel.syscalls.dispatch("read", 1, count=0) == 0
    assert kernel.syscalls.total_dispatched == 0


def test_per_syscall_counters(kernel):
    kernel.syscalls.dispatch("read", 1, count=5)
    kernel.syscalls.dispatch("write", 1, count=3)
    assert kernel.syscalls.count_of("read") == 5
    assert kernel.syscalls.count_of("write") == 3
    assert kernel.syscalls.count_of("futex") == 0
    assert kernel.syscalls.total_dispatched == 8


def test_counts_snapshot_is_copy(kernel):
    kernel.syscalls.dispatch("read", 1)
    snapshot = kernel.syscalls.counts_snapshot()
    snapshot["read"] = 999
    assert kernel.syscalls.count_of("read") == 1


def test_dispatch_unknown_syscall_with_zero_count_raises(kernel):
    # The name is checked before the count: a zero-count dispatch of an
    # unknown syscall is the same error as a positive one.
    with pytest.raises(SyscallError):
        kernel.syscalls.dispatch("nope", 1, count=0)
    with pytest.raises(SyscallError):
        kernel.syscalls.dispatch("nope", 1, count=1)
