"""Composable, journalled fault plans.

A :class:`FaultPlan` owns a set of injectors, optionally scoped to
specific URLs, and a journal of every fault it injected.  The journal is
the determinism witness: two runs of the same seeded plan against the
same request sequence must produce byte-identical journals
(:meth:`FaultPlan.journal_text`), which the chaos suite asserts.

Plans are driven entirely by the :class:`~repro.simkernel.clock.VirtualClock`
passed at construction — no wall time, no global randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import NetworkError
from repro.faults.injectors import FaultContext, Injector
from repro.simkernel.clock import VirtualClock
from repro.simkernel.rng import DeterministicRng


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the journal."""

    time_ns: int
    url: str
    method: str
    kind: str

    def line(self) -> str:
        """Canonical single-line rendering (journal format)."""
        return f"{self.time_ns} {self.method} {self.url} {self.kind}"


class _Rule:
    """One injector plus its URL scope."""

    def __init__(self, injector: Injector, urls: Optional[Sequence[str]]) -> None:
        self.injector = injector
        self.urls = None if urls is None else frozenset(urls)

    def applies_to(self, url: str) -> bool:
        return self.urls is None or url in self.urls


class FaultPlan:
    """A seeded composition of fault injectors with an event journal."""

    def __init__(self, clock: VirtualClock, rng: DeterministicRng) -> None:
        self.clock = clock
        self.rng = rng.fork("fault-plan")
        self._rules: List[_Rule] = []
        self.journal: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def add(self, injector: Injector,
            urls: Optional[Sequence[str]] = None) -> Injector:
        """Install an injector, scoped to ``urls`` (None = every URL)."""
        if urls is not None and not urls:
            raise NetworkError("empty URL scope; pass None for all URLs")
        self._rules.append(_Rule(injector, urls))
        return injector

    # ------------------------------------------------------------------
    # Application (called by FaultyHttpNetwork)
    # ------------------------------------------------------------------
    def begin(self, url: str, method: str) -> FaultContext:
        """Start a request context and run ``before`` hooks in order."""
        ctx = FaultContext(url=url, method=method, now_ns=self.clock.now_ns)
        for rule in self._rules:
            if ctx.response is not None:
                break  # a short-circuit fault wins
            if rule.applies_to(url):
                rule.injector.before(ctx)
        return ctx

    def finish(self, ctx: FaultContext) -> None:
        """Run ``after`` hooks in order and journal what was applied."""
        for rule in self._rules:
            if rule.applies_to(ctx.url):
                rule.injector.after(ctx)
        for kind in ctx.applied:
            self.journal.append(
                FaultEvent(time_ns=ctx.now_ns, url=ctx.url,
                           method=ctx.method, kind=kind)
            )

    def record(self, kind: str, subject: str, method: str = "DISK") -> None:
        """Journal a non-HTTP fault (disk corruption, process crash, ...).

        The storage and process chaos paths share the journal with the
        network injectors so one text captures the whole fault history of
        a run; ``subject`` takes the place of the URL (a file name, a
        component name) and ``method`` names the fault domain.
        """
        self.journal.append(
            FaultEvent(time_ns=self.clock.now_ns, url=subject,
                       method=method, kind=kind)
        )

    # ------------------------------------------------------------------
    # Determinism witness
    # ------------------------------------------------------------------
    def journal_text(self) -> str:
        """The whole journal as canonical text (byte-comparable)."""
        return "\n".join(event.line() for event in self.journal)

    def counts(self) -> dict:
        """Injected fault counts by kind."""
        result: dict = {}
        for event in self.journal:
            result[event.kind] = result.get(event.kind, 0) + 1
        return result
