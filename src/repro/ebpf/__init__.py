"""An eBPF-like in-kernel virtual machine.

TEEMon's System Metrics Exporter runs small counting programs inside the
kernel via eBPF.  This package reproduces that mechanism faithfully enough
that the exporter's programs are *actual programs*: register bytecode
(:mod:`repro.ebpf.instructions`) assembled by builders
(:mod:`repro.ebpf.stdlib`), checked by a static verifier that enforces the
classic eBPF safety rules — bounded size, no back-edges, no reads of
uninitialised registers, no unchecked division, bounded shifts
(:mod:`repro.ebpf.verifier`) — lowered once into a Python function and
run as that (:mod:`repro.ebpf.vm`, the kernel's verify-then-JIT split),
and communicating with user space exclusively through BPF maps
(:mod:`repro.ebpf.maps`).

Programs attach to kernel hooks through :mod:`repro.ebpf.attach`, which is
the seam between the simulated kernel's hook registry and the VM.
"""

from repro.ebpf.attach import EbpfRuntime, ProgramAttachment
from repro.ebpf.instructions import Instruction, Opcode, Reg
from repro.ebpf.maps import HashMap
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import ExecutionResult, Vm

__all__ = [
    "Instruction",
    "Opcode",
    "Reg",
    "Program",
    "verify",
    "Vm",
    "ExecutionResult",
    "HashMap",
    "EbpfRuntime",
    "ProgramAttachment",
]
