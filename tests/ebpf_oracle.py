"""Reference interpreter for the eBPF VM: the differential oracle.

``repro.ebpf.vm.Vm`` lowers a program once into a Python function and
runs that.  This is the fetch–decode loop it replaced, kept as the
specification: one instruction at a time, a ``pc`` and a step budget
checked before every fetch.  ``tests/test_ebpf_vm.py`` runs generated
programs through both and requires the same :class:`ExecutionResult`,
the same ``total_steps``/``total_runs``, the same map contents and the
same exception type and message.

The one deliberate difference: a program with a backward jump is run
here against the ``MAX_STEPS`` budget, while lowering refuses it up
front (it cannot bound the run).  Only unverified programs can tell.
"""

from __future__ import annotations

from repro.ebpf.instructions import Helper, NUM_REGISTERS, Opcode, Reg, U64_MASK
from repro.ebpf.maps import MapRegistry
from repro.ebpf.program import Program
from repro.ebpf.vm import MAX_STEPS, ExecutionResult
from repro.errors import VmFault
from repro.simkernel.hooks import HookContext


class OracleVm:
    """Interpreter with :class:`repro.ebpf.vm.Vm`'s constructor and ``run``."""

    def __init__(self, maps: MapRegistry, time_source=None) -> None:
        self._maps = maps
        self._time_source = time_source
        self.total_steps = 0
        self.total_runs = 0

    def run(self, program: Program, ctx: HookContext, cpu: int = 0) -> ExecutionResult:
        regs = [0] * NUM_REGISTERS
        regs[Reg.R1] = 1  # the "context pointer"; field access goes via LD_CTX
        instructions = program.instructions
        length = len(instructions)
        pc = 0
        steps = 0

        while True:
            if steps >= MAX_STEPS:
                raise VmFault(f"{program.name}: instruction budget exceeded")
            if not 0 <= pc < length:
                raise VmFault(f"{program.name}: pc out of bounds at {pc}")
            instruction = instructions[pc]
            steps += 1
            opcode = instruction.opcode
            dst, src = instruction.dst, instruction.src
            imm = instruction.imm & U64_MASK  # immediates are read unsigned

            if opcode is Opcode.EXIT:
                self.total_steps += steps
                self.total_runs += 1
                return ExecutionResult(return_value=regs[Reg.R0], steps=steps)

            if opcode is Opcode.MOV_IMM:
                regs[dst] = imm
            elif opcode is Opcode.MOV_REG:
                regs[dst] = regs[src]
            elif opcode is Opcode.ADD_IMM:
                regs[dst] = (regs[dst] + imm) & U64_MASK
            elif opcode is Opcode.ADD_REG:
                regs[dst] = (regs[dst] + regs[src]) & U64_MASK
            elif opcode is Opcode.SUB_IMM:
                regs[dst] = (regs[dst] - imm) & U64_MASK
            elif opcode is Opcode.SUB_REG:
                regs[dst] = (regs[dst] - regs[src]) & U64_MASK
            elif opcode is Opcode.MUL_IMM:
                regs[dst] = (regs[dst] * imm) & U64_MASK
            elif opcode is Opcode.MUL_REG:
                regs[dst] = (regs[dst] * regs[src]) & U64_MASK
            elif opcode is Opcode.DIV_IMM:
                if imm == 0:
                    raise VmFault(f"{program.name}:{pc}: division by zero")
                regs[dst] = regs[dst] // imm
            elif opcode is Opcode.DIV_REG:
                if regs[src] == 0:
                    raise VmFault(f"{program.name}:{pc}: division by zero")
                regs[dst] = regs[dst] // regs[src]
            elif opcode is Opcode.AND_IMM:
                regs[dst] = regs[dst] & imm
            elif opcode is Opcode.OR_IMM:
                regs[dst] = regs[dst] | imm
            elif opcode in (Opcode.RSH_IMM, Opcode.LSH_IMM):
                # The shift count is the one immediate with a range: the
                # raw value, not its 64-bit reading.
                if not 0 <= instruction.imm <= 63:
                    raise VmFault(
                        f"{program.name}:{pc}: shift count "
                        f"{instruction.imm} outside 0..63"
                    )
                if opcode is Opcode.RSH_IMM:
                    regs[dst] = regs[dst] >> instruction.imm
                else:
                    regs[dst] = (regs[dst] << instruction.imm) & U64_MASK
            elif opcode is Opcode.LD_CTX:
                value = ctx.get(instruction.field, 0)
                if instruction.field == "count":
                    value = ctx.count
                if not isinstance(value, int):
                    raise VmFault(
                        f"{program.name}:{pc}: context field "
                        f"{instruction.field!r} is not an integer"
                    )
                regs[dst] = value & U64_MASK
            elif opcode is Opcode.JMP:
                pc += 1 + instruction.offset
                continue
            elif opcode is Opcode.JEQ_IMM:
                if regs[dst] == imm:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JNE_IMM:
                if regs[dst] != imm:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JGT_IMM:
                if regs[dst] > imm:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JLT_IMM:
                if regs[dst] < imm:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JEQ_REG:
                if regs[dst] == regs[src]:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.JNE_REG:
                if regs[dst] != regs[src]:
                    pc += 1 + instruction.offset
                    continue
            elif opcode is Opcode.CALL:
                self._call_helper(program, pc, instruction.helper, regs, ctx, cpu)
            else:
                raise VmFault(f"{program.name}:{pc}: unimplemented opcode {opcode}")

            pc += 1

    def _call_helper(self, program, pc, helper, regs, ctx, cpu) -> None:
        if helper is Helper.MAP_LOOKUP:
            bpf_map = self._maps.get(regs[Reg.R1])
            value = bpf_map.lookup(regs[Reg.R2])
            regs[Reg.R0] = 0 if value is None else value & U64_MASK
        elif helper is Helper.MAP_UPDATE:
            bpf_map = self._maps.get(regs[Reg.R1])
            bpf_map.update(regs[Reg.R2], regs[Reg.R3])
            regs[Reg.R0] = 0
        elif helper is Helper.MAP_ADD:
            bpf_map = self._maps.get(regs[Reg.R1])
            if hasattr(bpf_map, "current_cpu"):
                bpf_map.current_cpu = cpu
            regs[Reg.R0] = bpf_map.add(regs[Reg.R2], regs[Reg.R3]) & U64_MASK
        elif helper is Helper.KTIME_GET_NS:
            if self._time_source is None:
                raise VmFault(f"{program.name}:{pc}: no time source configured")
            regs[Reg.R0] = int(self._time_source()) & U64_MASK
        elif helper is Helper.GET_CURRENT_PID:
            pid = ctx.get("pid", 0)
            regs[Reg.R0] = int(pid) & U64_MASK if isinstance(pid, int) else 0
        else:
            raise VmFault(f"{program.name}:{pc}: unknown helper {helper}")
