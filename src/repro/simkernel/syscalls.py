"""System-call table and dispatcher.

The dispatcher fires the two ``raw_syscalls`` tracepoints TEEMon attaches
to, carrying the syscall number and caller pid, exactly like the kernel's
raw tracepoints do.  The table covers the syscalls the paper's workloads
exercise — notably ``clock_gettime`` and ``futex``, whose dominance over
``read``/``write`` is the Figure 6 finding — plus the usual socket and
memory-management calls.

Costs are per-syscall kernel service times on the modelled hardware; the
SGX frameworks then multiply in their own transition costs (a SCONE async
syscall does not pay an enclave exit; a Graphene one pays a full
OCALL round trip).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SyscallError
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry

# Syscall numbers follow x86-64 Linux for recognisability.
SYSCALL_NUMBERS: Dict[str, int] = {
    "read": 0,
    "write": 1,
    "open": 2,
    "close": 3,
    "mmap": 9,
    "mprotect": 10,
    "munmap": 11,
    "brk": 12,
    "ioctl": 16,
    "sched_yield": 24,
    "nanosleep": 35,
    "sendto": 44,
    "recvfrom": 45,
    "accept": 43,
    "bind": 49,
    "listen": 50,
    "socket": 41,
    "epoll_wait": 232,
    "epoll_ctl": 233,
    "fork": 57,
    "execve": 59,
    "exit": 60,
    "futex": 202,
    "clock_gettime": 228,
    "epoll_create1": 291,
    "accept4": 288,
    "getpid": 39,
    "fsync": 74,
    "writev": 20,
    "readv": 19,
}

SYSCALL_NAMES: Dict[int, str] = {nr: name for name, nr in SYSCALL_NUMBERS.items()}

#: Kernel service time of each syscall in nanoseconds (no SGX costs).
#: Values are in line with published microbenchmarks for Skylake-era Linux.
DEFAULT_COSTS_NS: Dict[str, int] = {
    "read": 500,
    "write": 550,
    "open": 1_400,
    "close": 450,
    "mmap": 1_600,
    "mprotect": 900,
    "munmap": 1_200,
    "brk": 500,
    "ioctl": 600,
    "sched_yield": 300,
    "nanosleep": 1_000,
    "sendto": 1_800,
    "recvfrom": 1_700,
    "accept": 2_500,
    "bind": 900,
    "listen": 700,
    "socket": 1_800,
    "epoll_wait": 800,
    "epoll_ctl": 600,
    "fork": 55_000,
    "execve": 200_000,
    "exit": 5_000,
    "futex": 700,
    "clock_gettime": 25,  # vDSO fast path natively
    "epoll_create1": 1_000,
    "accept4": 2_500,
    "getpid": 40,
    "fsync": 80_000,
    "writev": 700,
    "readv": 650,
}


class SyscallTable:
    """Dispatches syscalls, firing the raw_syscalls tracepoints."""

    def __init__(self, clock: VirtualClock, hooks: HookRegistry) -> None:
        self._clock = clock
        self._hooks = hooks
        self._counts: Dict[str, int] = {}
        self._total = 0
        #: name -> (number, service time in ns, the exit latency in µs):
        #: all :meth:`dispatch` needs to know about a syscall, in one lookup.
        self._table: Dict[str, Tuple[int, int, int]] = {
            name: (nr, DEFAULT_COSTS_NS[name],
                   max(1, DEFAULT_COSTS_NS[name] // 1_000))
            for name, nr in SYSCALL_NUMBERS.items()
        }

    @property
    def total_dispatched(self) -> int:
        """Total syscall events dispatched since boot."""
        return self._total

    @staticmethod
    def number_of(name: str) -> int:
        """Resolve a syscall name to its number."""
        try:
            return SYSCALL_NUMBERS[name]
        except KeyError:
            raise SyscallError(f"unknown syscall: {name}") from None

    @staticmethod
    def name_of(nr: int) -> str:
        """Resolve a syscall number to its name."""
        try:
            return SYSCALL_NAMES[nr]
        except KeyError:
            raise SyscallError(f"unknown syscall number: {nr}") from None

    @staticmethod
    def cost_ns(name: str) -> int:
        """Kernel service time of one invocation."""
        try:
            return DEFAULT_COSTS_NS[name]
        except KeyError:
            raise SyscallError(f"no cost model for syscall: {name}") from None

    def count_of(self, name: str) -> int:
        """Events dispatched for one syscall since boot."""
        if name not in SYSCALL_NUMBERS:
            raise SyscallError(f"unknown syscall: {name}")
        return self._counts.get(name, 0)

    def dispatch(self, name: str, pid: int, count: int = 1) -> int:
        """Dispatch ``count`` invocations of syscall ``name`` from ``pid``.

        Fires ``raw_syscalls:sys_enter`` and ``raw_syscalls:sys_exit`` with
        the batch multiplicity and returns the total kernel service time in
        nanoseconds (the caller decides whether and how to charge it).
        """
        try:
            nr, cost, latency_us = self._table[name]
        except KeyError:
            raise SyscallError(f"unknown syscall: {name}") from None
        if count <= 0:
            return 0
        now = self._clock.now_ns
        self._counts[name] = self._counts.get(name, 0) + count
        self._total += count
        self._hooks.fire(
            "raw_syscalls:sys_enter", now, count=count, pid=pid, syscall_nr=nr,
            syscall_name=name,
        )
        # sys_exit carries the service latency (what a tracepoint-based
        # latency histogram measures: exit time minus enter time).
        self._hooks.fire(
            "raw_syscalls:sys_exit", now, count=count, pid=pid, syscall_nr=nr,
            syscall_name=name, latency_us=latency_us,
        )
        return cost * count

    def counts_snapshot(self) -> Dict[str, int]:
        """Copy of the per-syscall dispatch counters."""
        return dict(self._counts)
