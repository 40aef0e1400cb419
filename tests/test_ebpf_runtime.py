"""eBPF runtime (attach) and stdlib program tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.attach import EbpfRuntime, PROGRAM_RUN_COST_NS
from repro.ebpf.maps import HashMap, MapRegistry
from repro.ebpf.program import ProgramBuilder
from repro.ebpf.stdlib import (
    counter_program,
    log2_histogram_program,
    pid_attributed_counter_program,
)
from repro.ebpf.verifier import verify
from repro.errors import VerifierError
from repro.simkernel.hooks import HookContext
from repro.simkernel.kernel import Kernel
from tests.ebpf_oracle import OracleVm


def test_all_stdlib_programs_pass_the_verifier():
    for program in (
        counter_program("a", 3, key_field="syscall_nr"),
        counter_program("b", 3, fixed_key=0),
        counter_program("c", 3, key_field="syscall_nr", pid_filter=42),
        pid_attributed_counter_program("d", 3),
        log2_histogram_program("e", 3, "latency_us"),
        log2_histogram_program("f", 3, "latency_us", max_bucket=8),
    ):
        verify(program)


def test_load_and_attach_counts_events(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("syscalls"))
    runtime.load_and_attach(
        counter_program("sc", fd, key_field="syscall_nr"),
        "raw_syscalls:sys_enter",
    )
    kernel.syscalls.dispatch("read", 1, count=100)
    kernel.syscalls.dispatch("futex", 1, count=50)
    store = runtime.maps.get(fd)
    assert store.lookup(kernel.syscalls.number_of("read")) == 100
    assert store.lookup(kernel.syscalls.number_of("futex")) == 50


def test_batched_firing_counts_full_multiplicity(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("total"))
    runtime.load_and_attach(
        counter_program("t", fd, fixed_key=0), "PERF_COUNT_SW_CONTEXT_SWITCHES"
    )
    kernel.scheduler.account_switches(1, 12345)
    assert runtime.maps.get(fd).lookup(0) == 12345


def test_pid_filter_skips_other_pids(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("filtered"))
    runtime.load_and_attach(
        counter_program("f", fd, key_field="syscall_nr", pid_filter=42),
        "raw_syscalls:sys_enter",
    )
    kernel.syscalls.dispatch("read", 42, count=10)
    kernel.syscalls.dispatch("read", 7, count=99)
    assert runtime.maps.get(fd).lookup(0) == 10  # syscall_nr 0 = read


def test_pid_attributed_counter(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("by_pid"))
    runtime.load_and_attach(
        pid_attributed_counter_program("p", fd), "sched:sched_switches"
    )
    kernel.scheduler.account_switches(11, 3)
    kernel.scheduler.account_switches(22, 5)
    store = runtime.maps.get(fd)
    assert store.lookup(11) == 3
    assert store.lookup(22) == 5


def test_histogram_buckets_log2(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("hist"))
    runtime.load_and_attach(
        log2_histogram_program("h", fd, "latency_us"), "raw_syscalls:sys_exit"
    )
    for latency, expected_bucket in ((0, 0), (1, 0), (2, 1), (3, 1), (4, 2),
                                     (255, 7), (256, 8)):
        runtime.maps.get(fd).clear()
        kernel.hooks.fire("raw_syscalls:sys_exit", 0, latency_us=latency)
        items = dict(runtime.maps.get(fd).items())
        assert items == {expected_bucket: 1}, (latency, items)


def test_unverifiable_program_is_not_attached(kernel):
    runtime = EbpfRuntime(kernel)
    bad = ProgramBuilder("bad")
    bad.mov_imm(0, 0)  # type: ignore[arg-type]
    from repro.ebpf.instructions import Instruction, Opcode

    program = ProgramBuilder("bad2")
    program._instructions.append(Instruction(Opcode.JMP, offset=5))
    with pytest.raises(VerifierError):
        runtime.load_and_attach(program.build(), "sched:sched_switches")
    assert kernel.hooks.observer_count("sched:sched_switches") == 0


def test_dangling_map_fd_rejected_at_load(kernel):
    from repro.errors import MapError

    runtime = EbpfRuntime(kernel)
    program = counter_program("x", 77, fixed_key=0)
    with pytest.raises(MapError):
        runtime.load_and_attach(program, "sched:sched_switches")


def test_overhead_accounted_per_event(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("t"))
    runtime.load_and_attach(
        counter_program("t", fd, fixed_key=0), "sched:sched_switches"
    )
    kernel.scheduler.account_switches(1, 1000)
    assert runtime.overhead_ns == 1000 * PROGRAM_RUN_COST_NS


def test_detach_all_stops_counting(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("t"))
    runtime.load_and_attach(
        counter_program("t", fd, fixed_key=0), "sched:sched_switches"
    )
    kernel.scheduler.account_switches(1, 5)
    runtime.detach_all()
    kernel.scheduler.account_switches(1, 5)
    assert runtime.maps.get(fd).lookup(0) == 5
    assert runtime.attachments() == []


def test_attachment_statistics(kernel):
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(HashMap("t"))
    attachment = runtime.load_and_attach(
        counter_program("t", fd, fixed_key=0), "sched:sched_switches"
    )
    kernel.scheduler.account_switches(1, 500)   # one firing, 500 events
    kernel.scheduler.account_switches(1, 300)
    assert attachment.runs == 2
    assert attachment.events_seen == 800
    assert runtime.total_events_seen() == 800


def _exit_programs(runtime):
    """The eBPF exporter's two ``raw_syscalls:sys_exit`` programs."""
    exits_fd = runtime.create_map(HashMap("syscall_exits"))
    hist_fd = runtime.create_map(HashMap("syscall_latency_hist"))
    exits = runtime.load_and_attach(
        counter_program("count_syscall_exits", exits_fd, key_field="syscall_nr"),
        "raw_syscalls:sys_exit",
    )
    hist = runtime.load_and_attach(
        log2_histogram_program("syscall_latency_hist", hist_fd, "latency_us"),
        "raw_syscalls:sys_exit",
    )
    return exits, hist


def test_one_registry_observer_per_hook(kernel):
    runtime = EbpfRuntime(kernel)
    _exit_programs(runtime)
    assert kernel.hooks.observer_count("raw_syscalls:sys_exit") == 1


@pytest.mark.parametrize("detached", [0, 1])
def test_detaching_one_program_keeps_the_other_counting(kernel, detached):
    runtime = EbpfRuntime(kernel)
    attachments = _exit_programs(runtime)
    kept = attachments[1 - detached]
    kept_map = runtime.maps.get(kept.program.map_fds[0])
    kernel.syscalls.dispatch("read", 1, count=10)
    assert runtime.overhead_ns == 2 * 10 * PROGRAM_RUN_COST_NS

    attachments[detached].detach()
    attachments[detached].detach()  # idempotent
    kernel.syscalls.dispatch("read", 1, count=5)
    assert kernel.hooks.observer_count("raw_syscalls:sys_exit") == 1
    # Each of the two programs adds one per event to one key.
    assert sum(value for _key, value in kept_map.items()) == 15
    assert kept.runs == 2 and kept.events_seen == 15
    assert attachments[detached].runs == 1
    assert attachments[detached].events_seen == 10
    # Only the program still attached is charged for the second firing.
    assert runtime.overhead_ns == (2 * 10 + 5) * PROGRAM_RUN_COST_NS


def test_detaching_the_last_program_detaches_the_hook_observer(kernel):
    runtime = EbpfRuntime(kernel)
    exits, hist = _exit_programs(runtime)
    exits.detach()
    hist.detach()
    assert kernel.hooks.observer_count("raw_syscalls:sys_exit") == 0
    kernel.syscalls.dispatch("read", 1, count=5)
    assert runtime.overhead_ns == 0
    # A program loaded afterwards gets a fresh observer.
    fd = runtime.create_map(HashMap("again"))
    again = runtime.load_and_attach(
        counter_program("again", fd, fixed_key=0), "raw_syscalls:sys_exit"
    )
    kernel.syscalls.dispatch("read", 1, count=3)
    assert kernel.hooks.observer_count("raw_syscalls:sys_exit") == 1
    assert runtime.maps.get(fd).lookup(0) == 3 and again.runs == 1


# -- differential: fired through the registry == run directly -------------

_ORACLE_HOOKS = (
    "raw_syscalls:sys_enter", "raw_syscalls:sys_exit", "sched:sched_switches",
)

#: The stdlib programs the exporter loads, by index, over one map fd.
_STDLIB = (
    lambda name, fd: counter_program(name, fd, key_field="syscall_nr"),
    lambda name, fd: counter_program(name, fd, key_field="syscall_nr",
                                     pid_filter=42),
    lambda name, fd: counter_program(name, fd, fixed_key=0),
    lambda name, fd: pid_attributed_counter_program(name, fd),
    lambda name, fd: log2_histogram_program(name, fd, "latency_us"),
    lambda name, fd: log2_histogram_program(name, fd, "latency_us",
                                            max_bucket=3),
)

_fields = st.fixed_dictionaries({}, optional={
    "pid": st.sampled_from([0, 7, 42]),
    "syscall_nr": st.integers(0, 4),
    "latency_us": st.sampled_from([0, 1, 2, 5, 100, 2**40]),
})

_steps = st.one_of(
    st.tuples(st.just("fire"), st.sampled_from(_ORACLE_HOOKS),
              st.integers(0, 600), _fields),
    st.tuples(st.just("detach"), st.integers(0, 5)),
)


@given(
    st.lists(st.tuples(st.sampled_from(_ORACLE_HOOKS),
                       st.integers(0, len(_STDLIB) - 1)),
             min_size=1, max_size=6),
    st.lists(_steps, max_size=24),
)
@settings(max_examples=150, deadline=None)
def test_firing_through_the_registry_equals_running_the_oracle(programs, steps):
    kernel = Kernel(seed=1)
    runtime = EbpfRuntime(kernel)
    oracle_maps = MapRegistry()
    oracle = OracleVm(oracle_maps)
    attachments = []
    expected = []  # [program, hook, attached, runs, events_seen]
    for index, (hook, kind) in enumerate(programs):
        fd = runtime.create_map(HashMap(f"m{index}"))
        assert oracle_maps.create(HashMap(f"m{index}")) == fd
        program = _STDLIB[kind](f"p{index}", fd)
        attachments.append(runtime.load_and_attach(program, hook))
        expected.append([program, hook, True, 0, 0])
    overhead_ns = 0

    for time_ns, step in enumerate(steps):
        if step[0] == "detach":
            if step[1] < len(attachments):
                attachments[step[1]].detach()
                expected[step[1]][2] = False
            continue
        _, hook, count, fields = step
        kernel.hooks.fire(hook, time_ns, count=count, **fields)
        if count <= 0:
            continue
        ctx = HookContext(hook, time_ns, count, dict(fields))
        for entry in expected:
            if entry[1] == hook and entry[2]:
                oracle.run(entry[0], ctx)
                entry[3] += 1
                entry[4] += count
                overhead_ns += PROGRAM_RUN_COST_NS * count

    for fd in range(3, 3 + len(programs)):
        assert dict(runtime.maps.get(fd).items()) == dict(
            oracle_maps.get(fd).items())
    assert runtime.vm.total_steps == oracle.total_steps
    assert runtime.vm.total_runs == oracle.total_runs
    assert [(a.runs, a.events_seen) for a in attachments] == [
        (entry[3], entry[4]) for entry in expected]
    assert runtime.overhead_ns == overhead_ns
