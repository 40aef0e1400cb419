"""Attaching programs to kernel hooks.

:class:`EbpfRuntime` is the seam between the simulated kernel and the eBPF
subsystem: it owns the map registry and the VM, verifies every program
before loading (the kernel contract), attaches programs to hooks in the
kernel's :class:`~repro.simkernel.hooks.HookRegistry`, and accounts the
run-time overhead of in-kernel instrumentation so the monitoring-overhead
experiments (Figure 5) have something real to measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import EbpfError
from repro.ebpf.maps import BpfMap, MapRegistry
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import Vm
from repro.simkernel.hooks import AttachmentHandle, HookContext
from repro.simkernel.kernel import Kernel

#: Cost of one eBPF program execution at a hook, in nanoseconds.  Real
#: counting programs run in tens of nanoseconds; the hook trampoline and
#: map update dominate.
PROGRAM_RUN_COST_NS = 120


@dataclass
class ProgramAttachment:
    """One loaded-and-attached program."""

    program: Program
    hook: str
    handle: AttachmentHandle
    runs: int = 0
    events_seen: int = 0

    def detach(self) -> None:
        """Remove the program from its hook."""
        self.handle.detach()


class EbpfRuntime:
    """Loads, verifies, attaches and accounts eBPF programs on one host."""

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self.maps = MapRegistry()
        self.vm = Vm(self.maps, time_source=lambda: kernel.clock.now_ns)
        self._attachments: List[ProgramAttachment] = []
        #: Cumulative instrumentation CPU cost charged to the kernel, ns.
        self.overhead_ns = 0

    def create_map(self, bpf_map: BpfMap) -> int:
        """Register a map; returns its fd for use in programs."""
        return self.maps.create(bpf_map)

    def load_and_attach(self, program: Program, hook: str) -> ProgramAttachment:
        """Verify ``program`` and attach it to ``hook``.

        Verification failure raises
        :class:`~repro.errors.VerifierError` and nothing is attached,
        mirroring the kernel's load-time rejection.  A verified program
        is lowered here, once, so no hook firing pays for it.
        """
        verify(program)
        for fd in program.map_fds:
            self.maps.get(fd)  # raises MapError on dangling fds
        self.vm.lower(program)
        attachment = ProgramAttachment(program=program, hook=hook, handle=None)  # type: ignore[arg-type]

        def on_fire(ctx: HookContext, _attachment=attachment) -> None:
            self.vm.run(_attachment.program, ctx)
            _attachment.runs += 1
            _attachment.events_seen += ctx.count
            # One VM run per hook *firing*; batched firings cost one run
            # (this is exactly why batch simulation does not distort the
            # overhead measurements: overhead is charged per event below).
            self.overhead_ns += PROGRAM_RUN_COST_NS * ctx.count

        handle = self._kernel.hooks.attach(hook, on_fire)
        attachment.handle = handle
        self._attachments.append(attachment)
        return attachment

    def detach_all(self) -> None:
        """Detach every program (monitoring OFF)."""
        for attachment in self._attachments:
            attachment.detach()
        self._attachments.clear()

    def attachments(self) -> List[ProgramAttachment]:
        """Currently attached programs."""
        return list(self._attachments)

    def total_events_seen(self) -> int:
        """Events observed across all attachments."""
        return sum(a.events_seen for a in self._attachments)
