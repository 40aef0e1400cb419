"""eBPF VM unit tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.instructions import (
    Helper, Instruction, JUMP_OPS, Opcode, Reg,
)
from repro.ebpf.maps import HashMap, MapRegistry
from repro.ebpf.program import ProgramBuilder, program_from
from repro.ebpf.stdlib import (
    counter_program, log2_histogram_program, pid_attributed_counter_program,
)
from repro.ebpf.verifier import verify
from repro.ebpf.vm import U64_MASK, Vm
from repro.errors import VmFault
from repro.simkernel.hooks import HookContext
from tests.ebpf_oracle import OracleVm


def _ctx(count=1, **fields):
    return HookContext(hook="test", time_ns=123, count=count, fields=fields)


def _vm(time_source=None):
    return Vm(MapRegistry(), time_source=time_source)


def _run(builder: ProgramBuilder, vm=None, ctx=None):
    vm = vm or _vm()
    return vm.run(builder.build(), ctx or _ctx())


def test_exit_returns_r0():
    result = _run(ProgramBuilder("p").exit(42))
    assert result.return_value == 42


def test_alu_arithmetic():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R0, 10)
    builder.add_imm(Reg.R0, 5)
    builder.mul_imm(Reg.R0, 3)
    builder.sub_imm(Reg.R0, 15)
    builder.div_imm(Reg.R0, 2)
    builder.exit()
    assert _run(builder).return_value == 15


def test_register_to_register_ops():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R2, 7)
    builder.mov_reg(Reg.R0, Reg.R2)
    builder.add_reg(Reg.R0, Reg.R2)
    builder.exit()
    assert _run(builder).return_value == 14


def test_shifts_and_masks():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R0, 0b1101)
    builder.rsh_imm(Reg.R0, 2)
    builder.and_imm(Reg.R0, 0b11)
    builder.exit()
    assert _run(builder).return_value == 0b11


def test_arithmetic_wraps_at_64_bits():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R0, U64_MASK)
    builder.add_imm(Reg.R0, 1)
    builder.exit()
    assert _run(builder).return_value == 0


def test_subtraction_wraps_unsigned():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R0, 0)
    builder.sub_imm(Reg.R0, 1)
    builder.exit()
    assert _run(builder).return_value == U64_MASK


def test_ld_ctx_reads_fields():
    builder = ProgramBuilder("p")
    builder.ld_ctx(Reg.R0, "pid")
    builder.exit()
    assert _run(builder, ctx=_ctx(pid=77)).return_value == 77


def test_ld_ctx_missing_field_is_zero():
    builder = ProgramBuilder("p")
    builder.ld_ctx(Reg.R0, "absent")
    builder.exit()
    assert _run(builder).return_value == 0


def test_ld_ctx_count_reads_multiplicity():
    builder = ProgramBuilder("p")
    builder.ld_ctx(Reg.R0, "count")
    builder.exit()
    assert _run(builder, ctx=_ctx(count=512)).return_value == 512


def test_ld_ctx_non_integer_field_faults():
    builder = ProgramBuilder("p")
    builder.ld_ctx(Reg.R0, "name")
    builder.exit()
    with pytest.raises(VmFault, match="not an integer"):
        _run(builder, ctx=_ctx(name="redis"))


def test_conditional_branch_taken_and_not_taken():
    def run_with(pid):
        builder = ProgramBuilder("p")
        builder.ld_ctx(Reg.R2, "pid")
        builder.jeq_imm(Reg.R2, 42, 2)
        builder.mov_imm(Reg.R0, 0)
        builder.exit()
        builder.mov_imm(Reg.R0, 1)
        builder.exit()
        return _run(builder, ctx=_ctx(pid=pid)).return_value

    assert run_with(42) == 1
    assert run_with(7) == 0


def test_div_reg_by_zero_faults():
    builder = ProgramBuilder("p")
    builder.mov_imm(Reg.R0, 10)
    builder.mov_imm(Reg.R2, 0)
    builder._instructions.append(
        # built manually: DIV_REG is not exposed by the builder shortcuts
        __import__("repro.ebpf.instructions", fromlist=["Instruction"]).Instruction(
            __import__("repro.ebpf.instructions", fromlist=["Opcode"]).Opcode.DIV_REG,
            dst=Reg.R0, src=Reg.R2,
        )
    )
    builder.exit()
    with pytest.raises(VmFault, match="division by zero"):
        _run(builder)


def test_map_add_and_lookup_helpers():
    vm = _vm()
    fd = vm._maps.create(HashMap("m"))
    builder = ProgramBuilder("p").uses_map(fd)
    builder.mov_imm(Reg.R1, fd)
    builder.mov_imm(Reg.R2, 5)    # key
    builder.mov_imm(Reg.R3, 10)   # delta
    builder.call(Helper.MAP_ADD)
    builder.mov_imm(Reg.R1, fd)
    builder.mov_imm(Reg.R2, 5)
    builder.call(Helper.MAP_LOOKUP)
    builder.exit()
    assert vm.run(builder.build(), _ctx()).return_value == 10


def test_map_lookup_missing_returns_zero():
    vm = _vm()
    fd = vm._maps.create(HashMap("m"))
    builder = ProgramBuilder("p").uses_map(fd)
    builder.mov_imm(Reg.R1, fd)
    builder.mov_imm(Reg.R2, 99)
    builder.call(Helper.MAP_LOOKUP)
    builder.exit()
    assert vm.run(builder.build(), _ctx()).return_value == 0


def test_map_update_helper():
    vm = _vm()
    store = HashMap("m")
    fd = vm._maps.create(store)
    builder = ProgramBuilder("p").uses_map(fd)
    builder.mov_imm(Reg.R1, fd)
    builder.mov_imm(Reg.R2, 1)
    builder.mov_imm(Reg.R3, 777)
    builder.call(Helper.MAP_UPDATE)
    builder.exit(0)
    vm.run(builder.build(), _ctx())
    assert store.lookup(1) == 777


def test_bad_map_fd_faults_at_runtime():
    vm = _vm()
    builder = ProgramBuilder("p").uses_map(55)  # declared but never created
    builder.mov_imm(Reg.R1, 55)
    builder.mov_imm(Reg.R2, 0)
    builder.mov_imm(Reg.R3, 1)
    builder.call(Helper.MAP_ADD)
    builder.exit(0)
    from repro.errors import MapError

    with pytest.raises(MapError):
        vm.run(builder.build(), _ctx())


def test_ktime_helper_uses_time_source():
    vm = _vm(time_source=lambda: 123_456)
    builder = ProgramBuilder("p")
    builder.call(Helper.KTIME_GET_NS)
    builder.exit()
    assert vm.run(builder.build(), _ctx()).return_value == 123_456


def test_ktime_without_source_faults():
    builder = ProgramBuilder("p")
    builder.call(Helper.KTIME_GET_NS)
    builder.exit()
    with pytest.raises(VmFault, match="time source"):
        _run(builder)


def test_get_current_pid_helper():
    builder = ProgramBuilder("p")
    builder.call(Helper.GET_CURRENT_PID)
    builder.exit()
    assert _run(builder, ctx=_ctx(pid=31)).return_value == 31


def test_vm_accounts_runs_and_steps():
    vm = _vm()
    program = ProgramBuilder("p").exit(0).build()
    vm.run(program, _ctx())
    vm.run(program, _ctx())
    assert vm.total_runs == 2
    assert vm.total_steps == 4  # mov + exit, twice


# ----------------------------------------------------------------------
# Bugfix: verified programs stay inside the VM's fault model
# ----------------------------------------------------------------------
def _instructions(*instructions):
    return program_from("p", list(instructions))


def test_div_imm_reads_its_immediate_unsigned():
    # -3 is 2**64 - 3, like every other immediate: the quotient is 0 and
    # the register stays inside 64 bits (it used to hold -4).
    program = _instructions(
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=10),
        Instruction(Opcode.DIV_IMM, dst=Reg.R0, imm=-3),
        Instruction(Opcode.EXIT),
    )
    verify(program)
    assert _vm().run(program, _ctx()).return_value == 0


@pytest.mark.parametrize("opcode", [Opcode.RSH_IMM, Opcode.LSH_IMM])
@pytest.mark.parametrize("count", [-1, 64, 200])
def test_unverified_bad_shift_is_a_vm_fault_not_a_value_error(opcode, count):
    # ``rsh_imm r0, -1`` used to raise a bare ValueError out of Vm.run
    # (hence out of HookRegistry.fire); ``lsh_imm r0, 200`` built a
    # 200-bit intermediate.  The verifier refuses both now; run
    # unverified they fault like any other run-time error.
    program = _instructions(
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1),
        Instruction(opcode, dst=Reg.R0, imm=count),
        Instruction(Opcode.EXIT),
    )
    with pytest.raises(VmFault, match="shift count"):
        _vm().run(program, _ctx())


def test_unverified_div_by_zero_immediate_is_a_vm_fault():
    program = _instructions(
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1),
        Instruction(Opcode.DIV_IMM, dst=Reg.R0, imm=2**64),
        Instruction(Opcode.EXIT),
    )
    with pytest.raises(VmFault, match="division by zero"):
        _vm().run(program, _ctx())


# ----------------------------------------------------------------------
# Lowering: what it refuses, what it caches, how big its output is
# ----------------------------------------------------------------------
def test_backward_jump_is_refused_at_lowering_and_nothing_runs():
    vm = _vm()
    store = HashMap("m")
    fd = vm._maps.create(store)
    program = _instructions(
        Instruction(Opcode.MOV_IMM, dst=Reg.R1, imm=fd),
        Instruction(Opcode.MOV_IMM, dst=Reg.R2, imm=0),
        Instruction(Opcode.MOV_IMM, dst=Reg.R3, imm=1),
        Instruction(Opcode.CALL, helper=Helper.MAP_ADD),
        Instruction(Opcode.JMP, offset=-2),
        Instruction(Opcode.EXIT),
    )
    with pytest.raises(VmFault, match="backward jump"):
        vm.lower(program)
    with pytest.raises(VmFault, match="backward jump"):
        vm.run(program, _ctx())
    assert list(store.items()) == []  # the interpreter added 16384 times
    assert (vm.total_runs, vm.total_steps) == (0, 0)


def test_a_program_is_lowered_once_per_vm_and_by_identity():
    vm = _vm()
    program = ProgramBuilder("p").exit(7).build()
    twin = ProgramBuilder("p").exit(7).build()
    assert twin == program and twin is not program
    assert vm.lower(program) is vm.lower(program)
    assert vm.lower(twin) is not vm.lower(program)
    assert _vm().lower(program) is not vm.lower(program)  # no shared cache


def test_names_and_fields_are_bound_not_spliced_into_source():
    # A program name or field name that is valid Python must not become
    # code: it travels as a constant of the generated function.
    hostile = '"]); raise SystemExit(1)  #'
    builder = ProgramBuilder(hostile)
    builder.ld_ctx(Reg.R0, hostile)
    builder.exit()
    assert _run(builder, ctx=_ctx(**{hostile: 5})).return_value == 5
    with pytest.raises(VmFault) as caught:
        _run(builder, ctx=_ctx(**{hostile: "text"}))
    assert hostile in str(caught.value)


def _diamonds(count):
    """``count`` if/else diamonds in sequence, each joining before the next."""
    builder = ProgramBuilder("diamonds")
    builder.ld_ctx(Reg.R6, "pid")
    builder.mov_imm(Reg.R0, 0)
    for index in range(count):
        builder.jeq_imm(Reg.R6, index, 2)   # -> else arm
        builder.add_imm(Reg.R0, 1)          # then arm
        builder.jmp(1)                      # -> join
        builder.add_imm(Reg.R0, 2)          # else arm
    builder.exit()
    return builder.build()


def test_sequential_diamonds_lower_to_linear_source():
    # Duplicating each join block into both arms would double the code
    # per diamond (2**k); every block is emitted once instead.
    sizes = {
        count: len(_vm().lower(_diamonds(count)).__code__.co_code)
        for count in (8, 16, 32, 64)
    }
    per_diamond = (sizes[16] - sizes[8]) / 8
    assert sizes[32] - sizes[16] == pytest.approx(16 * per_diamond, rel=0.1)
    assert sizes[64] - sizes[32] == pytest.approx(32 * per_diamond, rel=0.1)
    program = _diamonds(64)
    verify(program)
    for pid in (0, 5, 63, 64):
        ctx = _ctx(pid=pid)
        assert _outcome(Vm, program, [ctx]) == _outcome(
            OracleVm, program, [ctx])


# ----------------------------------------------------------------------
# Differential: the lowered function against the reference interpreter
# ----------------------------------------------------------------------
def _world():
    """A registry of hash maps at every capacity a helper can meet:
    fd 3 is full after two keys, 4 after one, 5 after four, 6 and 7 have
    room for all of them; fd 8 was never issued (the bad-fd case)."""
    registry = MapRegistry()
    maps = [
        HashMap("two", max_entries=2),
        HashMap("one", max_entries=1),
        HashMap("four", max_entries=4),
        HashMap("roomy"),
        HashMap("roomy-too"),
    ]
    for bpf_map in maps:
        registry.create(bpf_map)
    return registry, maps


def _outcome(vm_class, program, firings, time_source=None):
    """Everything observable about running ``program`` over ``firings``."""
    registry, maps = _world()
    vm = vm_class(registry, time_source=time_source)
    results = []
    for ctx in firings:
        try:
            result = vm.run(program, ctx)
            results.append((result.return_value, result.steps))
        except Exception as exc:  # noqa: BLE001 - type and text are compared
            results.append((type(exc), str(exc)))
    contents = [list(bpf_map.items()) for bpf_map in maps]
    return results, vm.total_steps, vm.total_runs, contents


_registers = st.sampled_from(list(Reg))
_immediates = st.sampled_from(
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 200, -1, -3, 2**63, 2**64 - 1,
     2**64, 2**64 + 1])
_fields = st.sampled_from(
    ["pid", "count", "absent", "name", "flag", "big", "negative"])
_helpers = st.sampled_from(list(Helper) + [None])


@st.composite
def _programs(draw):
    """Instruction sequences over all 24 opcodes; jumps go forward to
    anywhere from the next instruction to two past the end, and the
    last instruction need not be EXIT."""
    length = draw(st.integers(1, 24))
    instructions = []
    for index in range(length):
        opcode = draw(st.sampled_from(list(Opcode)))
        if opcode in JUMP_OPS:
            offset = draw(st.integers(0, length - index + 1))
            instructions.append(Instruction(
                opcode, dst=draw(_registers), src=draw(_registers),
                imm=draw(_immediates), offset=offset))
        elif opcode is Opcode.LD_CTX:
            instructions.append(Instruction(
                opcode, dst=draw(_registers), field=draw(_fields)))
        elif opcode is Opcode.CALL:
            instructions.append(Instruction(opcode, helper=draw(_helpers)))
        else:
            instructions.append(Instruction(
                opcode, dst=draw(_registers), src=draw(_registers),
                imm=draw(_immediates)))
    if draw(st.booleans()):
        instructions[-1] = Instruction(Opcode.EXIT)
    return program_from("generated", instructions)


@st.composite
def _contexts(draw):
    fields = {
        "pid": draw(st.sampled_from([0, 1, 2, 5, True, 2**64 + 2])),
        "count": 99,                 # disagrees with ctx.count, which wins
        "name": "redis",             # not an integer
        "flag": draw(st.booleans()),
        "big": 2**64 + 5,
        "negative": -2,
    }
    return HookContext(
        hook="test", time_ns=5, fields=fields,
        count=draw(st.sampled_from([1, 3, 512, True, 2**64 + 3])))


_time_sources = st.sampled_from(
    [None, lambda: 123_456, lambda: 2.0**64 + 4096.0])


@given(_programs(), st.lists(_contexts(), min_size=1, max_size=3),
       _time_sources)
@settings(max_examples=400, deadline=None)
def test_lowered_program_matches_the_interpreter(program, firings, clock):
    assert _outcome(Vm, program, firings, clock) == _outcome(
        OracleVm, program, firings, clock)


@st.composite
def _map_programs(draw):
    """Straight-line helper traffic against every map of :func:`_world`,
    so capacity and bad-fd faults both occur."""
    builder = ProgramBuilder("maps")
    for _ in range(draw(st.integers(1, 6))):
        builder.mov_imm(Reg.R1, draw(st.integers(2, 9)))
        if draw(st.booleans()):
            builder.ld_ctx(Reg.R2, "pid")
        else:
            builder.mov_imm(Reg.R2, draw(st.integers(0, 5)))
        builder.ld_ctx(Reg.R3, "count")
        builder.call(draw(st.sampled_from(
            [Helper.MAP_ADD, Helper.MAP_UPDATE, Helper.MAP_LOOKUP])))
    builder.exit()
    return builder.build()


@given(_map_programs(), st.lists(_contexts(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_lowered_helpers_match_the_interpreter_on_every_map(program, firings):
    assert _outcome(Vm, program, firings) == _outcome(
        OracleVm, program, firings)


@given(st.integers(0, 40), st.lists(_contexts(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_lowered_diamond_chains_match_the_interpreter(count, firings):
    program = _diamonds(count)
    assert _outcome(Vm, program, firings) == _outcome(
        OracleVm, program, firings)


def _stdlib_programs(fd):
    yield counter_program("c", fd, key_field="syscall_nr")
    yield counter_program("c", fd, key_field="syscall_nr", pid_filter=42)
    yield counter_program("c", fd, fixed_key=3, pid_filter=7)
    yield counter_program("c", fd, fixed_key=0)
    yield pid_attributed_counter_program("c", fd)
    yield log2_histogram_program("h", fd, "latency_us")
    yield log2_histogram_program("h", fd, "latency_us", max_bucket=1)


@pytest.mark.parametrize("fd", [3, 4, 5, 6, 7, 8])
def test_every_stdlib_program_matches_the_interpreter(fd):
    firings = [
        HookContext("h", 1, count=count, fields={
            "pid": pid, "syscall_nr": nr, "latency_us": latency})
        for count, pid, nr, latency in [
            (1, 42, 0, 0), (200, 42, 1, 1), (3, 7, 2, 2),
            (512, 9, 3, 100), (1, 42, 4, 2**40), (7, 7, 1, 2**64),
        ]
    ]
    for program in _stdlib_programs(fd):
        if fd != 8:
            verify(program)
        assert _outcome(Vm, program, firings) == _outcome(
            OracleVm, program, firings)
