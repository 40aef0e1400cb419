"""The instruction set of the simulated eBPF VM.

The ISA is a compact subset of real eBPF: ten 64-bit registers, ALU
operations with register or immediate operands, conditional forward jumps,
context-field loads, helper calls and ``EXIT``.  Register r0 is the return
value and helper result register; r1 conventionally holds the context at
entry, matching the real calling convention.

Context-field loads (``LD_CTX``) take the field *name*; resolution happens
when a hook fires and the :class:`~repro.simkernel.hooks.HookContext`
supplies its fields.  This replaces real eBPF's offset-based ``ldx``
against ``struct pt_regs`` with something type-safe while preserving the
programming model: programs read event data, combine it, and talk to user
space only through maps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union


class Reg(enum.IntEnum):
    """The ten general-purpose registers."""

    R0 = 0
    R1 = 1
    R2 = 2
    R3 = 3
    R4 = 4
    R5 = 5
    R6 = 6
    R7 = 7
    R8 = 8
    R9 = 9


NUM_REGISTERS = len(Reg)

#: Registers are 64 bits wide: every value the VM keeps is masked to this,
#: and every immediate is read unsigned through it.
U64_MASK = (1 << 64) - 1


class Opcode(enum.Enum):
    """Operation codes."""

    MOV_IMM = "mov_imm"        # dst = imm
    MOV_REG = "mov_reg"        # dst = src
    ADD_IMM = "add_imm"        # dst += imm
    ADD_REG = "add_reg"        # dst += src
    SUB_IMM = "sub_imm"
    SUB_REG = "sub_reg"
    MUL_IMM = "mul_imm"
    MUL_REG = "mul_reg"
    DIV_IMM = "div_imm"        # dst /= imm (imm read unsigned; zero rejected)
    DIV_REG = "div_reg"        # dst /= src (VM faults on zero)
    AND_IMM = "and_imm"
    OR_IMM = "or_imm"
    RSH_IMM = "rsh_imm"        # dst >>= imm (imm must be in 0..63)
    LSH_IMM = "lsh_imm"        # dst <<= imm (imm must be in 0..63)
    LD_CTX = "ld_ctx"          # dst = ctx.fields[field] (0 when absent)
    JMP = "jmp"                # unconditional forward jump by offset
    JEQ_IMM = "jeq_imm"        # if dst == imm: jump
    JNE_IMM = "jne_imm"
    JGT_IMM = "jgt_imm"
    JLT_IMM = "jlt_imm"
    JEQ_REG = "jeq_reg"
    JNE_REG = "jne_reg"
    CALL = "call"              # call helper; args in r1..r5, result in r0
    EXIT = "exit"              # return r0


class Helper(enum.Enum):
    """Kernel helper functions callable from programs."""

    MAP_LOOKUP = "map_lookup"          # r1=map fd, r2=key       -> r0=value (0 if missing)
    MAP_UPDATE = "map_update"          # r1=map fd, r2=key, r3=value
    MAP_ADD = "map_add"                # r1=map fd, r2=key, r3=delta (atomic add)
    KTIME_GET_NS = "ktime_get_ns"      #                          -> r0=now_ns
    GET_CURRENT_PID = "get_current_pid"  #                        -> r0=ctx pid


ALU_OPS = {
    Opcode.MOV_IMM, Opcode.MOV_REG, Opcode.ADD_IMM, Opcode.ADD_REG,
    Opcode.SUB_IMM, Opcode.SUB_REG, Opcode.MUL_IMM, Opcode.MUL_REG,
    Opcode.DIV_IMM, Opcode.DIV_REG, Opcode.AND_IMM, Opcode.OR_IMM,
    Opcode.RSH_IMM, Opcode.LSH_IMM,
}

JUMP_OPS = {
    Opcode.JMP, Opcode.JEQ_IMM, Opcode.JNE_IMM, Opcode.JGT_IMM,
    Opcode.JLT_IMM, Opcode.JEQ_REG, Opcode.JNE_REG,
}

#: Opcodes whose ``src`` register is read.
SRC_READING_OPS = {
    Opcode.MOV_REG, Opcode.ADD_REG, Opcode.SUB_REG, Opcode.MUL_REG,
    Opcode.DIV_REG, Opcode.JEQ_REG, Opcode.JNE_REG,
}

#: Opcodes that read their ``dst`` register before writing it.
DST_READING_OPS = {
    Opcode.ADD_IMM, Opcode.ADD_REG, Opcode.SUB_IMM, Opcode.SUB_REG,
    Opcode.MUL_IMM, Opcode.MUL_REG, Opcode.DIV_IMM, Opcode.DIV_REG,
    Opcode.AND_IMM, Opcode.OR_IMM, Opcode.RSH_IMM, Opcode.LSH_IMM,
    Opcode.JEQ_IMM, Opcode.JNE_IMM, Opcode.JGT_IMM, Opcode.JLT_IMM,
    Opcode.JEQ_REG, Opcode.JNE_REG,
}

#: Opcodes that write their ``dst`` register.
DST_WRITING_OPS = ALU_OPS | {Opcode.LD_CTX}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``offset`` on jump opcodes is relative to the *next* instruction, as in
    real eBPF: ``offset=0`` falls through, ``offset=2`` skips two
    instructions.
    """

    opcode: Opcode
    dst: Optional[Reg] = None
    src: Optional[Reg] = None
    imm: int = 0
    offset: int = 0
    field: Optional[str] = None
    helper: Optional[Helper] = None

    def is_jump(self) -> bool:
        """Whether this instruction may transfer control."""
        return self.opcode in JUMP_OPS

    def mnemonic(self) -> str:
        """Human-readable rendering for diagnostics."""
        parts = [self.opcode.value]
        if self.dst is not None:
            parts.append(f"r{int(self.dst)}")
        if self.src is not None:
            parts.append(f"r{int(self.src)}")
        if self.opcode is Opcode.LD_CTX:
            parts.append(repr(self.field))
        elif self.opcode is Opcode.CALL:
            parts.append(self.helper.value if self.helper else "?")
        elif self.opcode.value.endswith("_imm") or self.opcode is Opcode.MOV_IMM:
            parts.append(str(self.imm))
        if self.is_jump():
            parts.append(f"+{self.offset}")
        return " ".join(parts)


Operand = Union[int, Reg]
