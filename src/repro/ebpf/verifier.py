"""Static verifier for eBPF programs.

The kernel refuses to load a program the verifier cannot prove safe; the
simulated kernel does the same.  The checks mirror the classic (pre-5.3)
eBPF rules:

* **bounded size** — at most ``MAX_INSTRUCTIONS`` instructions;
* **termination** — all jumps are forward (no back-edges, hence no loops);
* **in-bounds control flow** — every jump target lands inside the program,
  and no path falls off the end without ``EXIT``;
* **initialised registers** — a register is never read before a write on
  every path reaching the read (r1 is initialised at entry: it carries the
  context pointer);
* **no unchecked division** — ``DIV_IMM`` with a zero immediate is
  rejected outright (the immediate is read unsigned, like every other
  immediate, so ``2**64`` is zero too; ``DIV_REG`` traps at runtime, as
  real eBPF's runtime-checked division does);
* **bounded shifts** — ``RSH_IMM``/``LSH_IMM`` immediates must lie in
  0..63, as in the kernel: a larger or negative count has no 64-bit
  meaning;
* **declared maps only** — helper calls that take a map fd in r1 must be
  reachable only with fds the program declared.

The register-initialisation analysis is a simple forward dataflow over the
(acyclic, because jumps are forward-only) control-flow graph.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import VerifierError
from repro.ebpf.instructions import (
    DST_READING_OPS,
    DST_WRITING_OPS,
    Helper,
    Instruction,
    NUM_REGISTERS,
    Opcode,
    Reg,
    SRC_READING_OPS,
    U64_MASK,
)
from repro.ebpf.program import Program

MAX_INSTRUCTIONS = 4096

#: Helpers that take a map fd in r1 and a key in r2.
MAP_HELPERS = {Helper.MAP_LOOKUP, Helper.MAP_UPDATE, Helper.MAP_ADD}

#: Registers each helper reads.
HELPER_READS: Dict[Helper, Set[Reg]] = {
    Helper.MAP_LOOKUP: {Reg.R1, Reg.R2},
    Helper.MAP_UPDATE: {Reg.R1, Reg.R2, Reg.R3},
    Helper.MAP_ADD: {Reg.R1, Reg.R2, Reg.R3},
    Helper.KTIME_GET_NS: set(),
    Helper.GET_CURRENT_PID: set(),
}


def _successors(index: int, instruction: Instruction, length: int) -> List[int]:
    """Control-flow successors of the instruction at ``index``."""
    if instruction.opcode is Opcode.EXIT:
        return []
    if instruction.opcode is Opcode.JMP:
        return [index + 1 + instruction.offset]
    if instruction.is_jump():
        return [index + 1, index + 1 + instruction.offset]
    return [index + 1]


def verify(program: Program) -> None:
    """Verify ``program``; raises :class:`VerifierError` when unsafe."""
    instructions = program.instructions
    length = len(instructions)
    if length == 0:
        raise VerifierError(f"{program.name}: empty program")
    if length > MAX_INSTRUCTIONS:
        raise VerifierError(
            f"{program.name}: too long ({length} > {MAX_INSTRUCTIONS} instructions)"
        )

    declared_fds = set(program.map_fds)

    # Structural checks per instruction.
    for index, instruction in enumerate(instructions):
        where = f"{program.name}:{index} ({instruction.mnemonic()})"
        if instruction.is_jump():
            if instruction.offset < 0:
                raise VerifierError(f"{where}: backward jump (loops are not allowed)")
            target = index + 1 + instruction.offset
            if target > length:
                raise VerifierError(f"{where}: jump out of bounds to {target}")
        if instruction.opcode is Opcode.DIV_IMM and instruction.imm & U64_MASK == 0:
            raise VerifierError(f"{where}: division by zero immediate")
        if (instruction.opcode in (Opcode.RSH_IMM, Opcode.LSH_IMM)
                and not 0 <= instruction.imm <= 63):
            raise VerifierError(f"{where}: shift count outside 0..63")
        if instruction.opcode is Opcode.CALL:
            if instruction.helper is None:
                raise VerifierError(f"{where}: call without a helper")
            if instruction.helper not in HELPER_READS:
                raise VerifierError(f"{where}: unknown helper {instruction.helper}")
        if instruction.opcode is Opcode.LD_CTX and not instruction.field:
            raise VerifierError(f"{where}: LD_CTX without a field name")

    # Every path must reach EXIT before running off the end: the last
    # reachable fall-through instruction must be EXIT or an unconditional
    # jump landing on a valid index.  Cheaper formulation on a DAG: any
    # instruction whose fall-through successor equals `length` must be EXIT,
    # and jump targets equal to `length` are out of bounds.
    for index, instruction in enumerate(instructions):
        for successor in _successors(index, instruction, length):
            if successor >= length:
                raise VerifierError(
                    f"{program.name}:{index}: control flow falls off the end"
                )

    # Forward dataflow for register initialisation.  Because all edges go
    # forward, a single in-order pass with meet-over-predecessors is exact.
    entry_state = frozenset({Reg.R1})  # r1 = ctx at entry
    incoming: List[Set[frozenset]] = [set() for _ in range(length)]
    incoming[0].add(entry_state)
    reachable = [False] * length
    reachable[0] = True

    for index in range(length):
        if not reachable[index] or not incoming[index]:
            continue
        # Meet: a register counts as initialised only if it is initialised
        # on every incoming path.
        initialised = frozenset.intersection(*incoming[index])
        instruction = instructions[index]
        where = f"{program.name}:{index} ({instruction.mnemonic()})"

        reads: Set[Reg] = set()
        if instruction.opcode in SRC_READING_OPS and instruction.src is not None:
            reads.add(instruction.src)
        if instruction.opcode in DST_READING_OPS and instruction.dst is not None:
            reads.add(instruction.dst)
        if instruction.opcode is Opcode.CALL and instruction.helper is not None:
            reads |= HELPER_READS[instruction.helper]
        if instruction.opcode is Opcode.EXIT:
            reads.add(Reg.R0)
        for reg in reads:
            if reg not in initialised:
                raise VerifierError(f"{where}: reads uninitialised register r{int(reg)}")

        out = set(initialised)
        if instruction.opcode in DST_WRITING_OPS and instruction.dst is not None:
            out.add(instruction.dst)
        if instruction.opcode is Opcode.CALL:
            out.add(Reg.R0)  # helper result
        out_state = frozenset(out)

        for successor in _successors(index, instruction, length):
            incoming[successor].add(out_state)
            reachable[successor] = True

    # Map-fd discipline: any constant loaded into r1 immediately before a
    # map helper call must be a declared fd.  (A full value-tracking pass is
    # unnecessary for the canned-program shapes; stdlib always emits
    # `mov_imm r1, fd` adjacent to the call, and that is what we check.)
    for index, instruction in enumerate(instructions):
        if instruction.opcode is not Opcode.CALL:
            continue
        if instruction.helper not in MAP_HELPERS:
            continue
        fd = _trace_r1_constant(instructions, index)
        if fd is None:
            raise VerifierError(
                f"{program.name}:{index}: map helper call with untraceable map fd in r1"
            )
        if fd not in declared_fds:
            raise VerifierError(
                f"{program.name}:{index}: map fd {fd} not declared by the program"
            )


def _trace_r1_constant(instructions, call_index: int):
    """Walk backwards from a call to find the constant last moved into r1."""
    for index in range(call_index - 1, -1, -1):
        instruction = instructions[index]
        if instruction.is_jump() or instruction.opcode is Opcode.EXIT:
            return None  # control flow merges; give up
        if instruction.opcode is Opcode.CALL:
            return None  # helpers may clobber r1..r5 in real eBPF
        if instruction.dst is Reg.R1:
            if instruction.opcode is Opcode.MOV_IMM:
                return instruction.imm
            return None
    return None
