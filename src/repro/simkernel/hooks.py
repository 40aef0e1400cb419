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
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

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


#: The ``fields`` of a firing that carries none: read-only, so no two
#: contexts can share a dict one of them mutates.
_NO_FIELDS: Mapping[str, object] = MappingProxyType({})


class HookContext(NamedTuple):
    """Payload delivered to hook observers.

    ``fields`` carries hook-specific data (``pid``, ``syscall_nr``,
    ``fault_kind``, ...).  ``count`` is the event multiplicity of this
    firing; observers that count events must add ``count``, not 1.

    A named tuple rather than a frozen dataclass: it is just as
    immutable and costs well under half as much to build, and one is
    built per observed firing.
    """

    hook: str
    time_ns: int
    count: int = 1
    fields: Mapping[str, object] = _NO_FIELDS

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
    """Registry of hook points and their attached observers.

    Each hook keeps its observers twice: by attachment index, for
    :meth:`attach` and detach, and as one tuple in attach order, rebuilt
    on every attach and detach, which is all :meth:`fire` reads.
    """

    def __init__(self, catalogue: Optional[Mapping[str, HookKind]] = None) -> None:
        self._kinds: Dict[str, HookKind] = dict(
            TABLE2_HOOKS if catalogue is None else catalogue
        )
        self._attached: Dict[str, Dict[int, Callable[[HookContext], None]]] = {
            name: {} for name in self._kinds
        }
        self._observers: Dict[str, Tuple[Callable[[HookContext], None], ...]] = {
            name: () for name in self._kinds
        }
        self._next_index = 0
        self._fire_counts: Dict[str, int] = {name: 0 for name in self._kinds}

    def register(self, name: str, kind: HookKind) -> None:
        """Add a new hook point (e.g. an SGX-driver internal function)."""
        if name in self._kinds:
            raise HookError(f"hook already registered: {name}")
        self._kinds[name] = kind
        self._attached[name] = {}
        self._observers[name] = ()
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
        self._attached[name][index] = observer
        self._observers[name] = tuple(self._attached[name].values())
        return AttachmentHandle(name, index, self)

    def _detach(self, handle: AttachmentHandle) -> None:
        attached = self._attached.get(handle.hook, {})
        if attached.pop(handle.index, None) is not None:
            self._observers[handle.hook] = tuple(attached.values())

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

        Firing an unregistered hook is an error, whatever the count: it
        means a kernel subsystem and the hook catalogue disagree, which
        would silently lose metrics.  A firing of count zero or less is
        otherwise a no-op.

        The observers run in attach order, from the hook's observer tuple
        as it stood when the firing began: one attached or detached by an
        observer takes effect from the next firing.  A hook with nothing
        attached builds no :class:`HookContext`; one with observers
        builds one, shared by all of them.  The eBPF runtime attaches a
        single observer per hook however many programs it runs there.
        """
        try:
            observers = self._observers[name]
        except KeyError:
            raise HookError(f"fired unknown hook: {name}") from None
        if count <= 0:
            return
        self._fire_counts[name] += count
        if observers:
            ctx = HookContext(name, time_ns, count, fields)
            for observer in observers:
                observer(ctx)

    def fire_count(self, name: str) -> int:
        """Total event multiplicity fired on a hook since construction."""
        if name not in self._kinds:
            raise HookError(f"unknown hook: {name}")
        return self._fire_counts[name]

    def catalogue(self) -> Mapping[str, HookKind]:
        """The full hook catalogue (name -> mechanism)."""
        return dict(self._kinds)
