"""The eBPF VM: verify, then lower.

The kernel verifies a program once and then runs JITed code, not an
interpreter.  :class:`Vm` does the same: the first time it sees a
:class:`~repro.ebpf.program.Program` it *lowers* it into one Python
function — registers are locals, immediates are masked constants,
helper bodies are inlined — and every :meth:`Vm.run` after that is a
call of that function.  The fetch–decode interpreter this replaced
lives on as the differential oracle in ``tests/ebpf_oracle.py``.

**Proved once, at lowering.**  All jumps go forward and the program is
no longer than ``MAX_STEPS``, so a run executes each instruction at
most once and needs no per-step budget or ``pc`` check.  That is
lowering's own proof, not the verifier's: a program with a backward
jump is refused with :class:`VmFault` before anything runs (the
interpreter ran it against the budget instead; only unverified programs
can tell, and :meth:`EbpfRuntime.load_and_attach` never lets one
through).

**Still checked on every run**, on the values of that run and only on
the path that reaches them: division by zero, a non-integer context
field, a missing time source, the map fd (resolved through the live
:class:`MapRegistry`, so a closed map still faults), whatever the map
itself raises, and control leaving the program (a jump past the end or
falling off it raises ``pc out of bounds``).  All arithmetic is masked
to 64 bits; ``steps`` counts executed instructions exactly as the
interpreter did, because the modelled cost of a run is derived from it.

**Shape of the generated code.**  One function, every instruction
emitted once, so source size is linear in program length.  Python has
no ``goto``; forward jumps are rendered three ways, cheapest first:

* a jump out of the program is an inline ``raise``;
* a jump whose target closes a *region* — a ``while True:`` block that
  runs its body once — is a ``break``.  Regions are disjoint and never
  nest, so there is no depth to run out of;
* any other jump sets ``pc`` to its target, and each block such a jump
  can pass over is wrapped in ``if pc <= <its index>:``.  ``pc`` only
  grows, so a stale value never skips anything.

``steps`` is a constant wherever every path into a block has executed
the same number of instructions (straight-line code, trees, balanced
diamonds) and a local variable, assigned on each edge into the block,
where paths of different lengths join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import VmFault
from repro.ebpf.instructions import (
    Helper,
    Instruction,
    JUMP_OPS,
    NUM_REGISTERS,
    Opcode,
    U64_MASK,
)
from repro.ebpf.maps import MapRegistry
from repro.ebpf.program import Program
from repro.simkernel.hooks import HookContext

MAX_STEPS = 1 << 16

_MASK = f"{U64_MASK:#x}"
_INDENT = "    "


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: int
    steps: int


#: ``dst = <expression>`` per ALU opcode; ``{d}``/``{s}`` are register
#: locals, ``{i}`` the immediate read unsigned.  Registers never leave
#: 0..2**64-1, so AND/OR/RSH/DIV need no mask of their own.
_ALU = {
    Opcode.MOV_IMM: "{i}",
    Opcode.MOV_REG: "{s}",
    Opcode.ADD_IMM: "({d} + {i}) & " + _MASK,
    Opcode.ADD_REG: "({d} + {s}) & " + _MASK,
    Opcode.SUB_IMM: "({d} - {i}) & " + _MASK,
    Opcode.SUB_REG: "({d} - {s}) & " + _MASK,
    Opcode.MUL_IMM: "({d} * {i}) & " + _MASK,
    Opcode.MUL_REG: "({d} * {s}) & " + _MASK,
    Opcode.DIV_IMM: "{d} // {i}",
    Opcode.DIV_REG: "{d} // {s}",
    Opcode.AND_IMM: "{d} & {i}",
    Opcode.OR_IMM: "{d} | {i}",
}

_CONDITIONS = {
    Opcode.JEQ_IMM: "{d} == {i}",
    Opcode.JNE_IMM: "{d} != {i}",
    Opcode.JGT_IMM: "{d} > {i}",
    Opcode.JLT_IMM: "{d} < {i}",
    Opcode.JEQ_REG: "{d} == {s}",
    Opcode.JNE_REG: "{d} != {s}",
}


class _Lowering:
    """One program's translation; :meth:`function` is the result."""

    def __init__(self, program: Program) -> None:
        self.name = program.name
        self.instructions = program.instructions
        self.length = len(program.instructions)
        #: Exec namespace.  Strings (program name, field names, fault
        #: messages) are bound here as constants and referred to by
        #: generated names — never spliced into the source text.
        self.namespace: Dict[str, object] = {
            "VmFault": VmFault, "ExecutionResult": ExecutionResult,
        }
        self.lines: List[str] = []
        self.registers = {0}  # EXIT and the helpers read and write r0
        self.uses_pc = False
        self.uses_fields = False

    # -- operands ------------------------------------------------------
    def const(self, value: object) -> str:
        """Bind ``value`` in the namespace; returns the name to use."""
        name = f"K{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def fault(self, message: str) -> str:
        """Source of a statement raising ``VmFault(message)``."""
        return f"raise VmFault({self.const(message)})"

    def reg(self, index: int, operand: Optional[int]) -> str:
        """The local holding register ``operand`` of instruction ``index``."""
        if not isinstance(operand, int) or not 0 <= operand < NUM_REGISTERS:
            raise VmFault(f"{self.name}:{index}: bad register operand {operand!r}")
        self.registers.add(int(operand))
        return f"r{int(operand)}"

    def emit(self, depth: int, *statements: str) -> None:
        pad = _INDENT * depth
        self.lines.extend(pad + statement for statement in statements)

    # -- control-flow analysis -----------------------------------------
    def analyse(self) -> None:
        """Blocks, steps-at-entry, regions and guards.

        ``starts``/``ends`` delimit basic blocks in program order.
        ``base[start]`` is the number of instructions executed before
        the block on *every* path into it, ``None`` when paths disagree
        (then ``steps`` is a run-time local), absent when no path
        reaches it (dead code is not emitted).
        """
        instructions, length, name = self.instructions, self.length, self.name
        if length > MAX_STEPS:
            raise VmFault(f"{name}: instruction budget exceeded")
        leaders = {0}
        for index, instruction in enumerate(instructions):
            if instruction.opcode in JUMP_OPS:
                if not isinstance(instruction.offset, int) or instruction.offset < 0:
                    raise VmFault(
                        f"{name}:{index}: backward jump, run cannot be bounded"
                    )
                leaders.update((index + 1, index + 1 + instruction.offset))
            elif instruction.opcode is Opcode.EXIT:
                leaders.add(index + 1)
        starts = self.starts = sorted(s for s in leaders if s < length)
        ends = self.ends = starts[1:] + [length]

        base: Dict[int, Optional[int]] = {0: 0}

        def flow(target: int, steps: Optional[int]) -> None:
            if target < length:
                base[target] = steps if base.get(target, steps) == steps else None

        #: (block start, block end, target) of every taken jump that
        #: transfers control somewhere other than the next instruction.
        jumps: List[Tuple[int, int, int]] = []
        for start, end in zip(starts, ends):
            if start not in base:
                continue
            after = None if base[start] is None else base[start] + end - start
            last = instructions[end - 1]
            if last.opcode is Opcode.EXIT:
                continue
            if last.opcode in JUMP_OPS:
                target = end + last.offset
                flow(target, after)
                if end < target < length:
                    jumps.append((start, end, target))
                if last.opcode is Opcode.JMP:
                    continue
            flow(end, after)
        self.base = base

        # Regions: [first block that jumps to T, T), taken greedily in
        # target order while they stay disjoint.
        first_source: Dict[int, int] = {}
        for start, _end, target in jumps:
            first_source.setdefault(target, start)
        self.region_end: Dict[int, int] = {}  # region's first block -> T
        floor = 0
        for target in sorted(first_source):
            if first_source[target] >= floor:
                self.region_end[first_source[target]] = floor = target

        # Guards: a jump resumes straight after itself (or, when it
        # breaks out of a region, at the region's end) with ``pc`` set;
        # every block from there up to its target must test ``pc``.
        inside: Dict[int, int] = {}  # block start -> end of its region
        closes = 0
        for start in starts:
            if start >= closes:
                closes = self.region_end.get(start, 0)
            if start < closes:
                inside[start] = closes
        self.inside = inside
        spans = []
        for start, end, target in jumps:
            closes = inside.get(start)
            breaks = closes is not None and target >= closes
            spans.append((closes if breaks else end, target))
        spans.sort()
        self.guarded = set()
        reach = cursor = 0
        for start in starts:
            while cursor < len(spans) and spans[cursor][0] <= start:
                reach = max(reach, spans[cursor][1])
                cursor += 1
            if start < reach:
                self.guarded.add(start)

    # -- emission ------------------------------------------------------
    def enter(self, target: int, steps: Optional[int]) -> List[str]:
        """What an edge into block ``target`` runs first.  ``steps`` is
        the count so far when the source block knows it as a constant;
        a block that already counts in the ``steps`` local has added its
        own length by then (all its successors count there too)."""
        if steps is None or self.base[target] is not None:
            return []
        return [f"steps = {steps}"]

    def leave(
        self, start: int, end: int, target: int, steps: Optional[int]
    ) -> List[str]:
        """Statements of a taken jump from block ``start:end`` to ``target``."""
        if target >= self.length:
            return [self.fault(f"{self.name}: pc out of bounds at {target}")]
        statements = self.enter(target, steps)
        closes = self.inside.get(start)
        if closes is not None and target >= closes:
            if target > closes:
                statements.append(f"pc = {target}")
                self.uses_pc = True
            statements.append("break")
        elif target > end:
            statements.append(f"pc = {target}")
            self.uses_pc = True
        return statements

    def block(self, start: int, end: int, depth: int) -> None:
        """Emit block ``start:end``; only its last instruction can be
        ``EXIT`` or a jump (each is followed by a block boundary)."""
        if start in self.guarded:
            self.emit(depth, f"if pc <= {start}:")
            self.uses_pc = True
            depth += 1
        mark = len(self.lines)
        last = self.instructions[end - 1]
        jumps = last.opcode in JUMP_OPS
        exits = last.opcode is Opcode.EXIT
        for index in range(start, end - (jumps or exits)):
            self.emit(depth, *self.statement(index, self.instructions[index]))
        steps = self.base[start]
        if steps is None:
            self.emit(depth, f"steps += {end - start}")
        else:
            steps += end - start
        if exits:
            total = "steps" if steps is None else steps
            self.emit(
                depth,
                f"vm.total_steps += {total}",
                "vm.total_runs += 1",
                f"return ExecutionResult(r0, {total})",
            )
        elif jumps and last.offset:
            taken = self.leave(start, end, end + last.offset, steps)
            if last.opcode is Opcode.JMP:
                self.emit(depth, *taken)
            else:
                condition = _CONDITIONS[last.opcode].format(
                    d=self.reg(end - 1, last.dst),
                    s=(self.reg(end - 1, last.src)
                       if last.opcode.value.endswith("_reg") else ""),
                    i=last.imm & U64_MASK,
                )
                self.emit(depth, f"if {condition}:")
                self.emit(depth + 1, *taken)
        if not exits and not (last.opcode is Opcode.JMP and last.offset):
            # Control runs on into the next instruction.
            if end >= self.length:
                self.emit(depth, self.fault(
                    f"{self.name}: pc out of bounds at {end}"))
            else:
                self.emit(depth, *self.enter(end, steps))
        if len(self.lines) == mark:
            self.emit(depth, "pass")

    def statement(self, index: int, instruction: Instruction) -> List[str]:
        """Source of one non-control-flow instruction."""
        opcode = instruction.opcode
        where = f"{self.name}:{index}"
        if opcode in _ALU:
            dst = self.reg(index, instruction.dst)
            src = (self.reg(index, instruction.src)
                   if opcode.value.endswith("_reg") else "")
            imm = instruction.imm & U64_MASK
            divides = opcode in (Opcode.DIV_IMM, Opcode.DIV_REG)
            if opcode is Opcode.DIV_IMM and imm == 0:
                return [self.fault(f"{where}: division by zero")]
            check = [f"if {src} == 0: " + self.fault(f"{where}: division by zero")
                     ] if divides and src else []
            expression = _ALU[opcode].format(d=dst, s=src, i=imm)
            return check + [f"{dst} = {expression}"]
        if opcode in (Opcode.RSH_IMM, Opcode.LSH_IMM):
            dst = self.reg(index, instruction.dst)
            count = instruction.imm
            if not isinstance(count, int) or not 0 <= count <= 63:
                return [self.fault(f"{where}: shift count {count} outside 0..63")]
            if opcode is Opcode.RSH_IMM:
                return [f"{dst} = {dst} >> {count:d}"]
            return [f"{dst} = ({dst} << {count:d}) & {_MASK}"]
        if opcode is Opcode.LD_CTX:
            dst = self.reg(index, instruction.dst)
            if instruction.field == "count":
                load = "v = ctx.count"
            else:
                self.uses_fields = True
                load = f"v = field({self.const(instruction.field)}, 0)"
            return [
                load,
                "if not isinstance(v, int): " + self.fault(
                    f"{where}: context field {instruction.field!r} "
                    f"is not an integer"),
                f"{dst} = v & {_MASK}",
            ]
        if opcode is Opcode.CALL:
            return self.helper(where, instruction.helper)
        return [self.fault(f"{where}: unimplemented opcode {opcode}")]

    def helper(self, where: str, helper: Optional[Helper]) -> List[str]:
        """The helper's body, inline: arguments r1..r3, result r0."""
        if helper in (Helper.MAP_LOOKUP, Helper.MAP_UPDATE, Helper.MAP_ADD):
            self.registers.update((1, 2))
            # The fd is resolved on every call: the registry is live.
            resolve = "m = vm._maps.get(r1)"
            if helper is Helper.MAP_LOOKUP:
                return [resolve, "v = m.lookup(r2)",
                        f"r0 = 0 if v is None else v & {_MASK}"]
            self.registers.add(3)
            if helper is Helper.MAP_UPDATE:
                return [resolve, "m.update(r2, r3)", "r0 = 0"]
            return [resolve, f"r0 = m.add(r2, r3) & {_MASK}"]
        if helper is Helper.KTIME_GET_NS:
            return ["v = vm._time_source",
                    "if v is None: " + self.fault(
                        f"{where}: no time source configured"),
                    f"r0 = int(v()) & {_MASK}"]
        if helper is Helper.GET_CURRENT_PID:
            self.uses_fields = True
            return [f"v = field({self.const('pid')}, 0)",
                    f"r0 = v & {_MASK} if isinstance(v, int) else 0"]
        return [self.fault(f"{where}: unknown helper {helper}")]

    def function(self) -> Callable:
        """Generate, compile and return ``run(vm, ctx)``."""
        self.analyse()
        closes = None  # end of the open region, if any
        for start, end in zip(self.starts, self.ends):
            if start == closes:
                self.emit(2, "break")
                closes = None
            if start not in self.base:
                continue
            if closes is None and start in self.region_end:
                self.emit(1, "while True:")
                closes = self.region_end[start]
            self.block(start, end, 1 if closes is None else 2)
        if not self.length:
            self.emit(1, self.fault(f"{self.name}: pc out of bounds at 0"))
        prologue = []
        zeroed = sorted(self.registers - {1})
        if zeroed:
            prologue.append(" = ".join(f"r{r}" for r in zeroed) + " = 0")
        if 1 in self.registers:
            prologue.append("r1 = 1")  # the "context pointer"
        if self.uses_pc:
            prologue.append("pc = 0")
        if self.uses_fields:
            prologue.append("field = ctx.fields.get")
        source = "\n".join(
            ["def run(vm, ctx):"]
            + [_INDENT + statement for statement in prologue]
            + self.lines
        )
        exec(compile(source, f"<ebpf {self.name!r}>", "exec"), self.namespace)
        return self.namespace["run"]


class Vm:
    """Runs programs against a map registry and a time source."""

    def __init__(self, maps: MapRegistry, time_source=None) -> None:
        self._maps = maps
        self._time_source = time_source  # callable -> now_ns, for KTIME_GET_NS
        self.total_steps = 0
        self.total_runs = 0
        #: id(program) -> (program, its lowered function).  Holding the
        #: program keeps its id from being reused while the entry lives.
        self._lowered: Dict[int, Tuple[Program, Callable]] = {}

    def lower(self, program: Program) -> Callable:
        """The function ``program`` runs as, generated on first sight.

        Raises :class:`VmFault` for a program whose run cannot be
        bounded (a backward jump, or longer than ``MAX_STEPS``).
        """
        entry = self._lowered.get(id(program))
        if entry is None or entry[0] is not program:
            entry = (program, _Lowering(program).function())
            self._lowered[id(program)] = entry
        return entry[1]

    def run(self, program: Program, ctx: HookContext) -> ExecutionResult:
        """Execute ``program`` once against ``ctx``.

        The one entry point of every program run.  A program already
        lowered runs straight from the cache, without a call through
        :meth:`lower`.
        """
        entry = self._lowered.get(id(program))
        if entry is None or entry[0] is not program:
            return self.lower(program)(self, ctx)
        return entry[1](self, ctx)
