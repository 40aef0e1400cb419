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
from typing import Callable, Dict, List, Optional, Tuple

from repro.ebpf.maps import HashMap, MapRegistry
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import Vm
from repro.simkernel.hooks import AttachmentHandle, HookContext
from repro.simkernel.kernel import Kernel

#: Cost of one eBPF program execution at a hook, in nanoseconds.  Real
#: counting programs run in tens of nanoseconds; the hook trampoline and
#: map update dominate.
PROGRAM_RUN_COST_NS = 120


@dataclass(eq=False)
class ProgramAttachment:
    """One loaded-and-attached program."""

    program: Program
    hook: str
    _runtime: "EbpfRuntime" = field(repr=False)
    runs: int = 0
    events_seen: int = 0

    def detach(self) -> None:
        """Remove the program from its hook; the hook's others keep running."""
        self._runtime._detach(self)


class _HookPrograms:
    """The programs attached to one hook and the observer that runs them."""

    __slots__ = ("attachments", "handle")

    def __init__(self) -> None:
        self.attachments: Tuple[ProgramAttachment, ...] = ()
        self.handle: Optional[AttachmentHandle] = None


class EbpfRuntime:
    """Loads, verifies, attaches and accounts eBPF programs on one host.

    A hook carries one registry observer however many programs are
    attached to it: the observer runs them in attach order, each through
    :meth:`Vm.run`, and keeps each attachment's statistics.
    """

    def __init__(self, kernel: Kernel) -> None:
        self._kernel = kernel
        self.maps = MapRegistry()
        self.vm = Vm(self.maps, time_source=lambda: kernel.clock.now_ns)
        self._attachments: List[ProgramAttachment] = []
        self._hooks: Dict[str, _HookPrograms] = {}
        #: Cumulative instrumentation CPU cost charged to the kernel, ns.
        self.overhead_ns = 0

    def create_map(self, bpf_map: HashMap) -> int:
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
        programs = self._hooks.get(hook)
        if programs is None:
            programs = _HookPrograms()
            programs.handle = self._kernel.hooks.attach(
                hook, self._observer(programs)
            )
            self._hooks[hook] = programs
        attachment = ProgramAttachment(program, hook, self)
        programs.attachments += (attachment,)
        self._attachments.append(attachment)
        return attachment

    def _observer(self, programs: _HookPrograms) -> Callable[[HookContext], None]:
        vm = self.vm

        def on_fire(ctx: HookContext) -> None:
            count = ctx.count
            # One VM run per program per hook *firing*; batched firings
            # cost one run each (this is exactly why batch simulation does
            # not distort the overhead measurements: overhead is charged
            # per event below).
            cost_ns = PROGRAM_RUN_COST_NS * count
            for attachment in programs.attachments:
                vm.run(attachment.program, ctx)
                attachment.runs += 1
                attachment.events_seen += count
                self.overhead_ns += cost_ns

        return on_fire

    def _detach(self, attachment: ProgramAttachment) -> None:
        programs = self._hooks.get(attachment.hook)
        if programs is None or attachment not in programs.attachments:
            return
        programs.attachments = tuple(
            a for a in programs.attachments if a is not attachment
        )
        if not programs.attachments:
            programs.handle.detach()
            del self._hooks[attachment.hook]

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
