"""Hook registry unit tests."""

import pytest

from repro.errors import HookError
from repro.simkernel.hooks import HookContext, HookKind, HookRegistry, TABLE2_HOOKS


def test_table2_hooks_preregistered():
    registry = HookRegistry()
    for name in TABLE2_HOOKS:
        assert registry.kind_of(name) is TABLE2_HOOKS[name]


def test_table2_has_thirteen_hooks():
    # Exactly the rows of the paper's Table 2.
    assert len(TABLE2_HOOKS) == 13


def test_register_new_hook():
    registry = HookRegistry()
    registry.register("isgx:custom", HookKind.KPROBE)
    assert registry.kind_of("isgx:custom") is HookKind.KPROBE


def test_register_duplicate_rejected():
    registry = HookRegistry()
    with pytest.raises(HookError):
        registry.register("raw_syscalls:sys_enter", HookKind.TRACEPOINT)


def test_unknown_hook_kind_lookup_raises():
    with pytest.raises(HookError):
        HookRegistry().kind_of("nope")


def test_names_filtered_by_kind():
    registry = HookRegistry()
    kprobes = registry.names(HookKind.KPROBE)
    assert "add_to_page_cache_lru" in kprobes
    assert "raw_syscalls:sys_enter" not in kprobes


def test_fire_delivers_context():
    registry = HookRegistry()
    seen = []
    registry.attach("raw_syscalls:sys_enter", seen.append)
    registry.fire("raw_syscalls:sys_enter", time_ns=99, count=3, pid=42, syscall_nr=0)
    assert len(seen) == 1
    ctx = seen[0]
    assert ctx.time_ns == 99
    assert ctx.count == 3
    assert ctx.get("pid") == 42
    assert ctx.get("syscall_nr") == 0
    assert ctx.get("missing", "dflt") == "dflt"


def test_fire_unknown_hook_raises():
    with pytest.raises(HookError):
        HookRegistry().fire("nope", time_ns=0)


def test_fire_unknown_hook_with_zero_count_raises():
    # The name is checked before the count short-circuit.
    with pytest.raises(HookError):
        HookRegistry().fire("nope", 0, count=0)


def test_fire_zero_count_is_noop():
    registry = HookRegistry()
    seen = []
    registry.attach("sched:sched_switches", seen.append)
    registry.fire("sched:sched_switches", time_ns=0, count=0)
    assert seen == []
    assert registry.fire_count("sched:sched_switches") == 0


def test_fire_count_accumulates_multiplicity():
    registry = HookRegistry()
    registry.fire("sched:sched_switches", time_ns=0, count=5)
    registry.fire("sched:sched_switches", time_ns=1, count=7)
    assert registry.fire_count("sched:sched_switches") == 12


def test_multiple_observers_all_called():
    registry = HookRegistry()
    calls = []
    registry.attach("sched:sched_switches", lambda c: calls.append("a"))
    registry.attach("sched:sched_switches", lambda c: calls.append("b"))
    registry.fire("sched:sched_switches", time_ns=0)
    assert sorted(calls) == ["a", "b"]


def test_detach_stops_delivery():
    registry = HookRegistry()
    calls = []
    handle = registry.attach("sched:sched_switches", lambda c: calls.append(1))
    registry.fire("sched:sched_switches", time_ns=0)
    handle.detach()
    registry.fire("sched:sched_switches", time_ns=1)
    assert calls == [1]


def test_observers_run_in_attach_order():
    registry = HookRegistry()
    calls = []
    for name in "abc":
        registry.attach("sched:sched_switches", lambda c, n=name: calls.append(n))
    registry.fire("sched:sched_switches", time_ns=0)
    assert calls == ["a", "b", "c"]


def test_observer_detached_mid_firing_sees_that_firing_and_misses_the_next():
    registry = HookRegistry()
    calls = []
    handles = {}

    def first(ctx):
        calls.append(("first", ctx.time_ns))
        handles["second"].detach()

    registry.attach("sched:sched_switches", first)
    handles["second"] = registry.attach(
        "sched:sched_switches", lambda c: calls.append(("second", c.time_ns))
    )
    registry.fire("sched:sched_switches", time_ns=1)
    registry.fire("sched:sched_switches", time_ns=2)
    assert calls == [("first", 1), ("second", 1), ("first", 2)]
    assert registry.observer_count("sched:sched_switches") == 1


def test_observer_attached_mid_firing_starts_with_the_next():
    registry = HookRegistry()
    calls = []

    def attacher(ctx):
        calls.append(("attacher", ctx.time_ns))
        if ctx.time_ns == 1:
            registry.attach(
                "sched:sched_switches", lambda c: calls.append(("late", c.time_ns))
            )

    registry.attach("sched:sched_switches", attacher)
    registry.fire("sched:sched_switches", time_ns=1)
    registry.fire("sched:sched_switches", time_ns=2)
    assert calls == [("attacher", 1), ("attacher", 2), ("late", 2)]


def test_context_is_immutable_and_its_default_fields_are_read_only():
    registry = HookRegistry()
    seen = []
    registry.attach("sched:sched_switches", seen.append)
    registry.fire("sched:sched_switches", time_ns=0)
    with pytest.raises(AttributeError):
        seen[0].count = 2  # type: ignore[misc]
    bare = HookContext("h", 0)
    assert bare.count == 1 and bare.fields == {} and bare.get("pid") is None
    with pytest.raises(TypeError):
        bare.fields["pid"] = 1  # type: ignore[index]


def test_observer_count():
    registry = HookRegistry()
    assert registry.observer_count("sched:sched_switches") == 0
    handle = registry.attach("sched:sched_switches", lambda c: None)
    assert registry.observer_count("sched:sched_switches") == 1
    handle.detach()
    assert registry.observer_count("sched:sched_switches") == 0


def test_attach_unknown_hook_raises():
    with pytest.raises(HookError):
        HookRegistry().attach("nope", lambda c: None)


def test_fire_without_observers_still_counts():
    registry = HookRegistry()
    registry.fire("raw_syscalls:sys_exit", time_ns=0, count=10)
    assert registry.fire_count("raw_syscalls:sys_exit") == 10


def test_catalogue_copy_is_isolated():
    registry = HookRegistry()
    catalogue = registry.catalogue()
    catalogue["fake"] = HookKind.KPROBE
    with pytest.raises(HookError):
        registry.kind_of("fake")
