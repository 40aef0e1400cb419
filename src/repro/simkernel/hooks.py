"""Kernel instrumentation hooks: tracepoints, kprobes and perf events.

TEEMon's System Metrics Exporter attaches small eBPF programs to a fixed
set of kernel hooks (Table 2 of the paper).  This module models those
attachment points.  Kernel subsystems *fire* hooks as a side effect of their
work (the syscall dispatcher fires ``raw_syscalls:sys_enter``, the scheduler
fires ``sched:sched_switches``, ...), and observers — the eBPF VM, tests —
*attach* callbacks.

Hook firings carry a ``count`` multiplicity so workloads can be simulated in
aggregate batches without losing anything the monitoring pipeline could
observe: TEEMon's programs only ever count events.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import HookError


class HookKind(enum.Enum):
    """The three instrumentation mechanisms used in Table 2."""

    TRACEPOINT = "tracepoint"
    KPROBE = "kprobe"
    PERF_EVENT = "perf_event"


# The hook catalogue: exactly the instrumentation points TEEMon uses
# (paper, Table 2), plus the scheduler/driver internals they hang off.
TABLE2_HOOKS: Dict[str, HookKind] = {
    # System-call metrics
    "raw_syscalls:sys_enter": HookKind.TRACEPOINT,
    "raw_syscalls:sys_exit": HookKind.TRACEPOINT,
    # Page-cache metrics
    "add_to_page_cache_lru": HookKind.KPROBE,
    "mark_page_accessed": HookKind.KPROBE,
    "account_page_dirtied": HookKind.KPROBE,
    "mark_buffer_dirty": HookKind.KPROBE,
    # Hardware cache counters
    "PERF_COUNT_HW_CACHE_MISSES": HookKind.PERF_EVENT,
    "PERF_COUNT_HW_CACHE_REFERENCES": HookKind.PERF_EVENT,
    # Context switches
    "PERF_COUNT_SW_CONTEXT_SWITCHES": HookKind.PERF_EVENT,
    "sched:sched_switches": HookKind.TRACEPOINT,
    # Page faults
    "PERF_COUNT_SW_PAGE_FAULTS": HookKind.PERF_EVENT,
    "exceptions:page_fault_user": HookKind.TRACEPOINT,
    "exceptions:page_fault_kernel": HookKind.TRACEPOINT,
}


@dataclass(frozen=True)
class HookContext:
    """Payload delivered to hook observers.

    ``fields`` carries hook-specific data (``pid``, ``syscall_nr``,
    ``fault_kind``, ...).  ``count`` is the event multiplicity of this
    firing; observers that count events must add ``count``, not 1.
    """

    hook: str
    time_ns: int
    count: int = 1
    fields: Mapping[str, object] = field(default_factory=dict)

    def get(self, key: str, default: object = None) -> object:
        """Convenience accessor into :attr:`fields`."""
        return self.fields.get(key, default)


@dataclass(frozen=True)
class AttachmentHandle:
    """Returned by :meth:`HookRegistry.attach`; detaches the observer."""

    hook: str
    index: int
    _registry: "HookRegistry" = field(repr=False, compare=False)

    def detach(self) -> None:
        """Remove the observer; it will not see subsequent firings."""
        self._registry._detach(self)


class HookRegistry:
    """Registry of hook points and their attached observers."""

    def __init__(self, catalogue: Optional[Mapping[str, HookKind]] = None) -> None:
        self._kinds: Dict[str, HookKind] = dict(
            TABLE2_HOOKS if catalogue is None else catalogue
        )
        self._observers: Dict[str, Dict[int, Callable[[HookContext], None]]] = {
            name: {} for name in self._kinds
        }
        self._next_index = 0
        self._fire_counts: Dict[str, int] = {name: 0 for name in self._kinds}

    def register(self, name: str, kind: HookKind) -> None:
        """Add a new hook point (e.g. an SGX-driver internal function)."""
        if name in self._kinds:
            raise HookError(f"hook already registered: {name}")
        self._kinds[name] = kind
        self._observers[name] = {}
        self._fire_counts[name] = 0

    def kind_of(self, name: str) -> HookKind:
        """Return the mechanism backing a hook."""
        try:
            return self._kinds[name]
        except KeyError:
            raise HookError(f"unknown hook: {name}") from None

    def names(self, kind: Optional[HookKind] = None) -> List[str]:
        """All hook names, optionally filtered by mechanism."""
        if kind is None:
            return sorted(self._kinds)
        return sorted(n for n, k in self._kinds.items() if k is kind)

    def attach(self, name: str, observer: Callable[[HookContext], None]) -> AttachmentHandle:
        """Attach ``observer`` to the hook ``name``."""
        if name not in self._kinds:
            raise HookError(f"unknown hook: {name}")
        index = self._next_index
        self._next_index += 1
        self._observers[name][index] = observer
        return AttachmentHandle(name, index, self)

    def _detach(self, handle: AttachmentHandle) -> None:
        self._observers.get(handle.hook, {}).pop(handle.index, None)

    def observer_count(self, name: str) -> int:
        """Number of observers currently attached to a hook."""
        if name not in self._kinds:
            raise HookError(f"unknown hook: {name}")
        return len(self._observers[name])

    def fire(
        self,
        name: str,
        time_ns: int,
        count: int = 1,
        **fields: object,
    ) -> None:
        """Fire a hook with multiplicity ``count``.

        Firing an unregistered hook is an error: it means a kernel subsystem
        and the hook catalogue disagree, which would silently lose metrics.

        Zero and one attached observers are fast-pathed: most of the Table-2
        hooks have nothing attached during app simulation, and the attached
        ones almost always have exactly the eBPF VM — neither case needs the
        defensive snapshot of the observer dict (taken only when several
        observers could detach each other mid-dispatch), and the zero case
        allocates no :class:`HookContext` at all.
        """
        if count <= 0:
            return
        try:
            observers = self._observers[name]
        except KeyError:
            raise HookError(f"fired unknown hook: {name}") from None
        self._fire_counts[name] += count
        remaining = len(observers)
        if remaining == 0:
            return
        ctx = HookContext(hook=name, time_ns=time_ns, count=count, fields=fields)
        if remaining == 1:
            next(iter(observers.values()))(ctx)
            return
        for observer in list(observers.values()):
            observer(ctx)

    def fire_count(self, name: str) -> int:
        """Total event multiplicity fired on a hook since construction."""
        if name not in self._kinds:
            raise HookError(f"unknown hook: {name}")
        return self._fire_counts[name]

    def catalogue(self) -> Mapping[str, HookKind]:
        """The full hook catalogue (name -> mechanism)."""
        return dict(self._kinds)
