"""eBPF verifier unit tests: each safety rule, accept and reject sides."""

import pytest

from repro.ebpf.instructions import Helper, Instruction, Opcode, Reg
from repro.ebpf.program import Program, ProgramBuilder, program_from
from repro.ebpf.verifier import MAX_INSTRUCTIONS, verify
from repro.errors import EbpfError, VerifierError


def _trivial() -> ProgramBuilder:
    return ProgramBuilder("t")


def test_minimal_program_accepted():
    program = _trivial().exit(0).build()
    verify(program)


def test_empty_program_rejected_at_build():
    with pytest.raises(EbpfError):
        ProgramBuilder("empty").build()


def test_too_long_program_rejected():
    instructions = [Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0)] * (
        MAX_INSTRUCTIONS + 1
    )
    program = program_from("long", instructions)
    with pytest.raises(VerifierError, match="too long"):
        verify(program)


def test_backward_jump_rejected():
    program = program_from("loop", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.JMP, offset=-2),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError, match="backward"):
        verify(program)


def test_jump_out_of_bounds_rejected():
    program = program_from("oob", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.JMP, offset=10),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError):
        verify(program)


def test_fall_off_the_end_rejected():
    program = program_from("fall", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
    ])
    with pytest.raises(VerifierError, match="falls off"):
        verify(program)


def test_conditional_jump_to_exact_end_rejected():
    # Target == len is "one past the end": there is no EXIT there.
    program = program_from("edge", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.JEQ_IMM, dst=Reg.R0, imm=0, offset=1),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError):
        verify(program)


def test_division_by_zero_immediate_rejected():
    builder = _trivial()
    builder.mov_imm(Reg.R0, 10)
    builder._instructions.append(  # the builder itself forbids this shape
        Instruction(Opcode.DIV_IMM, dst=Reg.R0, imm=0)
    )
    builder.exit()
    with pytest.raises(VerifierError, match="division by zero"):
        verify(builder.build())


def test_division_immediate_is_read_unsigned():
    # Every immediate is read as 64 unsigned bits: 2**64 is zero, and a
    # negative divisor is a large positive one, not a sign flip.
    def dividing_by(imm):
        return program_from("div", [
            Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=10),
            Instruction(Opcode.DIV_IMM, dst=Reg.R0, imm=imm),
            Instruction(Opcode.EXIT),
        ])

    with pytest.raises(VerifierError, match="division by zero"):
        verify(dividing_by(2**64))
    verify(dividing_by(-3))


@pytest.mark.parametrize("opcode", [Opcode.RSH_IMM, Opcode.LSH_IMM])
@pytest.mark.parametrize("count", [-1, 64, 200])
def test_shift_count_outside_the_register_width_rejected(opcode, count):
    program = program_from("shift", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1),
        Instruction(opcode, dst=Reg.R0, imm=count),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError, match="shift count outside 0..63"):
        verify(program)


@pytest.mark.parametrize("opcode", [Opcode.RSH_IMM, Opcode.LSH_IMM])
@pytest.mark.parametrize("count", [0, 63])
def test_shift_count_inside_the_register_width_accepted(opcode, count):
    verify(program_from("shift", [
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=1),
        Instruction(opcode, dst=Reg.R0, imm=count),
        Instruction(Opcode.EXIT),
    ]))


def test_uninitialised_register_read_rejected():
    program = program_from("uninit", [
        Instruction(Opcode.ADD_IMM, dst=Reg.R5, imm=1),   # reads R5 first
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError, match="uninitialised register r5"):
        verify(program)


def test_r1_initialised_at_entry():
    # r1 carries the context, so reading it first is legal.
    program = program_from("ctx", [
        Instruction(Opcode.MOV_REG, dst=Reg.R0, src=Reg.R1),
        Instruction(Opcode.EXIT),
    ])
    verify(program)


def test_exit_requires_r0():
    program = program_from("noret", [Instruction(Opcode.EXIT)])
    with pytest.raises(VerifierError, match="uninitialised register r0"):
        verify(program)


def test_meet_over_paths_requires_init_on_every_path():
    # One branch initialises R6, the other does not -> reading R6 after the
    # merge must be rejected.
    builder = _trivial()
    builder.ld_ctx(Reg.R2, "pid")
    builder.jeq_imm(Reg.R2, 0, 1)        # skip the init on one path
    builder.mov_imm(Reg.R6, 5)
    builder.mov_reg(Reg.R0, Reg.R6)      # R6 maybe uninitialised here
    builder.exit()
    with pytest.raises(VerifierError, match="uninitialised register r6"):
        verify(builder.build())


def test_init_on_both_paths_accepted():
    builder = _trivial()
    builder.ld_ctx(Reg.R2, "pid")
    builder.jeq_imm(Reg.R2, 0, 2)
    builder.mov_imm(Reg.R6, 5)
    builder.jmp(1)
    builder.mov_imm(Reg.R6, 7)
    builder.mov_reg(Reg.R0, Reg.R6)
    builder.exit()
    verify(builder.build())


def test_helper_argument_registers_checked():
    # MAP_ADD reads r1..r3; r3 never set.
    builder = _trivial().uses_map(3)
    builder.mov_imm(Reg.R1, 3)
    builder.mov_imm(Reg.R2, 0)
    builder.call(Helper.MAP_ADD)
    builder.exit(0)
    with pytest.raises(VerifierError, match="uninitialised register r3"):
        verify(builder.build())


def test_call_without_helper_rejected():
    program = program_from("badcall", [
        Instruction(Opcode.CALL),
        Instruction(Opcode.MOV_IMM, dst=Reg.R0, imm=0),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError, match="without a helper"):
        verify(program)


def test_undeclared_map_fd_rejected():
    builder = _trivial()  # note: no uses_map
    builder.mov_imm(Reg.R1, 9)
    builder.mov_imm(Reg.R2, 0)
    builder.mov_imm(Reg.R3, 1)
    builder.call(Helper.MAP_ADD)
    builder.exit(0)
    with pytest.raises(VerifierError, match="not declared"):
        verify(builder.build())


def test_untraceable_map_fd_rejected():
    builder = _trivial().uses_map(9)
    builder.ld_ctx(Reg.R1, "pid")   # fd from context: not a constant
    builder.mov_imm(Reg.R2, 0)
    builder.mov_imm(Reg.R3, 1)
    builder.call(Helper.MAP_ADD)
    builder.exit(0)
    with pytest.raises(VerifierError, match="untraceable"):
        verify(builder.build())


def test_ld_ctx_requires_field_name():
    program = program_from("nofield", [
        Instruction(Opcode.LD_CTX, dst=Reg.R0),
        Instruction(Opcode.EXIT),
    ])
    with pytest.raises(VerifierError, match="without a field"):
        verify(program)


def test_non_map_helper_needs_no_declaration():
    builder = _trivial()
    builder.call(Helper.KTIME_GET_NS)
    builder.exit()  # r0 = helper result
    verify(builder.build())


def test_disassembly_is_readable():
    builder = _trivial().uses_map(3)
    builder.ld_ctx(Reg.R2, "syscall_nr")
    builder.mov_imm(Reg.R1, 3)
    builder.mov_imm(Reg.R3, 1)
    builder.call(Helper.MAP_ADD)
    builder.exit(0)
    listing = builder.build().disassemble()
    assert "ld_ctx r2 'syscall_nr'" in listing
    assert "call" in listing and "map_add" in listing
