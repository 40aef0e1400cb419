"""Spans and the tracer that makes them.

Spans live on the :class:`~repro.simkernel.clock.VirtualClock`: a span's
``start_ns``/``end_ns`` are virtual timestamps, and ids are drawn from a
:class:`~repro.simkernel.rng.DeterministicRng` substream — two same-seed
runs of the same workload produce byte-identical trace journals, the
property the chaos suite asserts for fault journals.

Because the simulation executes whole pipeline stages at a single clock
instant, spans additionally carry *modelled* time: instrumented code calls
:meth:`Span.add_virtual_time` with the stage's modelled cost (transport
latency, parse cost, append cost), and a span's children are laid out
sequentially along that modelled timeline.  A child starts at its
parent's current cursor and, on ending, pushes the cursor to its own end
— which is what makes the waterfall renderer show *where time goes*
inside a scrape cycle rather than a stack of zero-width bars.

Tracing is off by default with a near-zero no-op path: :data:`NOOP_TRACER`
hands out one shared :data:`NOOP_SPAN` whose every method is a pass, so
instrumented code can be written unconditionally (``with tracer.span(...)``)
and hot paths can skip even that with an ``if tracer.enabled`` guard.

With a :class:`~repro.trace.sampling.HeadSampler` attached, the tracer
makes the keep/drop decision once per trace, at root creation.  A
sampled-out trace gets one shared-shape :class:`_UnsampledSpan` object
for its *entire* subtree — nested ``span()`` calls return the same
object with a depth counter — so the unsampled path does no attribute
dicts, no events, no store writes and no end callbacks.  The decision
rides :attr:`TraceContext.sampled` (the W3C flags byte), and an explicit
``parent`` context with ``sampled=False`` keeps the whole continuation
(retries, remote joins) on the cheap path too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.simkernel.clock import VirtualClock
from repro.simkernel.rng import DeterministicRng
from repro.trace.context import TraceContext
from repro.trace.sampling import HeadSampler
from repro.trace.store import TraceStore

#: Span status values (OpenTelemetry's three-valued status).
STATUS_UNSET = "unset"
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation on a span (e.g. a retry being scheduled)."""

    time_ns: int
    name: str
    attributes: Tuple[Tuple[str, object], ...] = ()

    def line(self) -> str:
        """Canonical single-line rendering (journal format)."""
        attrs = ",".join(f"{k}={v!r}" for k, v in self.attributes)
        return f"@{self.time_ns}:{self.name}{{{attrs}}}"


class Span:
    """One traced operation with virtual-time bounds.

    Use as a context manager via :meth:`Tracer.span`; exceptions escaping
    the body mark the span's status ``error`` (and still propagate).
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "seq",
        "start_ns", "end_ns", "cursor_ns", "status",
        "attributes", "events", "_tracer",
    )

    #: Real spans record; the unsampled/no-op shapes override to False so
    #: call sites can gate expensive attribute computation.
    recording = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        seq: int,
        start_ns: int,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.seq = seq
        self.start_ns = start_ns
        #: The modelled "current time" inside the span; children start
        #: here and completed work pushes it forward.
        self.cursor_ns = start_ns
        self.end_ns: Optional[int] = None
        self.status = STATUS_UNSET
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.events: List[SpanEvent] = []

    # ------------------------------------------------------------------
    @property
    def context(self) -> TraceContext:
        """This span's propagation context."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def duration_ns(self) -> int:
        """Virtual duration; 0 while the span is still open."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one attribute."""
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: object) -> None:
        """Record a point event at the span's current cursor."""
        self.events.append(SpanEvent(
            time_ns=self.cursor_ns, name=name,
            attributes=tuple(sorted(attributes.items())),
        ))

    def add_virtual_time(self, delta_ns: int) -> None:
        """Advance the span's modelled timeline by ``delta_ns``."""
        if delta_ns > 0:
            self.cursor_ns += delta_ns

    def set_status(self, status: str) -> None:
        """Set the span status (``ok`` / ``error``)."""
        self.status = status

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self.status = STATUS_ERROR
            self.add_event("exception", type=exc_type.__name__, message=str(exc))
        self._tracer._end(self)
        return False  # never swallow

    # ------------------------------------------------------------------
    def line(self) -> str:
        """Canonical single-line rendering (journal format)."""
        attrs = ",".join(f"{k}={v!r}" for k, v in sorted(self.attributes.items()))
        events = " ".join(event.line() for event in self.events)
        parent = self.parent_id or "-"
        base = (
            f"{self.trace_id} {self.seq} {self.span_id} {parent} {self.name} "
            f"{self.start_ns} {self.end_ns} {self.status} [{attrs}]"
        )
        return f"{base} {events}" if events else base


class _UnsampledSpan:
    """One shared object for a sampled-out trace's entire subtree.

    Shaped like :class:`_NoopSpan` (every recording method is a pass) but
    it *does* carry a context, so traceparent injection propagates the
    not-sampled decision downstream.  Nested ``span()`` calls on the
    tracer return this same object with a depth counter; the object pops
    off the tracer when the outermost ``with`` exits.
    """

    __slots__ = ("trace_id", "span_id", "_depth", "_tracer")

    recording = False
    events: tuple = ()
    attributes: dict = {}

    def __init__(self, tracer: "Tracer", trace_id: str) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        # Derived, not drawn: the unsampled path must not consume the id
        # stream.  Either half of a nonzero trace id is a valid span id
        # (at least one half is nonzero).
        half = trace_id[16:]
        self.span_id = half if half != "0" * 16 else trace_id[:16]
        self._depth = 1

    @property
    def context(self) -> TraceContext:
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id, sampled=False
        )

    def __enter__(self) -> "_UnsampledSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._depth -= 1
        if self._depth <= 0:
            self._tracer._unsampled_exit(self)
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def add_event(self, name: str, **attributes: object) -> None:
        pass

    def add_virtual_time(self, delta_ns: int) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


class Tracer:
    """Creates spans, maintains the active-span stack, feeds the store.

    The simulation is single-threaded, so a plain stack gives correct and
    deterministic implicit parenting: ``tracer.span(...)`` parents to the
    innermost open span unless an explicit ``parent`` context is given
    (the cross-request case — e.g. a retry continuing its cycle's trace).
    """

    enabled = True

    def __init__(
        self,
        clock: VirtualClock,
        rng: Optional[DeterministicRng] = None,
        store: Optional[TraceStore] = None,
        sampler: Optional[HeadSampler] = None,
    ) -> None:
        self._clock = clock
        self._ids = (rng or DeterministicRng(0)).fork("trace-ids")
        self.store = store if store is not None else TraceStore()
        self.sampler = sampler
        self._stack: List[Span] = []
        self._unsampled: List[_UnsampledSpan] = []
        self._seq = 0
        self.spans_started = 0
        self.spans_ended = 0
        self.traces_started = 0
        self.traces_sampled_out = 0
        self.spans_unsampled = 0
        self._end_callbacks: List[Callable[[Span], None]] = []

    # ------------------------------------------------------------------
    # Id generation (deterministic under the seed)
    # ------------------------------------------------------------------
    def _new_trace_id(self) -> str:
        # getrandbits over randint: no rejection loop for the 128-bit
        # range.  ``or 1`` keeps the all-zeros id (invalid per W3C) out.
        return f"{self._ids.getrandbits(128) or 1:032x}"

    def _new_span_id(self) -> str:
        return f"{self._ids.getrandbits(64) or 1:016x}"

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        attributes: Optional[Dict[str, object]] = None,
        parent: Optional[TraceContext] = None,
    ):
        """Open a span (use as a context manager).

        Parenting, most specific first: the explicit ``parent`` context,
        else the innermost open span, else a fresh trace root.  A parent
        whose head decision was *not sampled* — explicit via its context
        flags, or implicit via the open unsampled subtree — keeps the
        child on the unsampled fast path.
        """
        top = self._stack[-1] if self._stack else None
        if parent is not None:
            if not parent.sampled:
                return self._unsampled_span(parent.trace_id)
            trace_id, parent_id = parent.trace_id, parent.span_id
            start_ns = top.cursor_ns if top is not None else self._clock.now_ns
        elif top is not None:
            trace_id, parent_id = top.trace_id, top.span_id
            start_ns = top.cursor_ns
        elif self._unsampled:
            # Inside an open unsampled root: the subtree stays cheap.
            # Inlined reuse (the hot always-on path): same trace by
            # construction, so just bump the depth counter.
            self.spans_unsampled += 1
            unsampled_top = self._unsampled[-1]
            unsampled_top._depth += 1
            return unsampled_top
        else:
            trace_id, parent_id = self._new_trace_id(), None
            start_ns = self._clock.now_ns
            self.traces_started += 1
            if self.sampler is not None and not self.sampler.sample(trace_id):
                self.traces_sampled_out += 1
                return self._unsampled_span(trace_id)
        self._seq += 1
        span = Span(
            tracer=self, name=name, trace_id=trace_id,
            span_id=self._new_span_id(), parent_id=parent_id,
            seq=self._seq, start_ns=start_ns, attributes=attributes,
        )
        self._stack.append(span)
        self.spans_started += 1
        return span

    def _unsampled_span(self, trace_id: str) -> _UnsampledSpan:
        """Reuse (or open) the unsampled subtree object for ``trace_id``."""
        self.spans_unsampled += 1
        if self._unsampled and self._unsampled[-1].trace_id == trace_id:
            top = self._unsampled[-1]
            top._depth += 1
            return top
        span = _UnsampledSpan(self, trace_id)
        self._unsampled.append(span)
        return span

    def _unsampled_exit(self, span: _UnsampledSpan) -> None:
        if self._unsampled and self._unsampled[-1] is span:
            self._unsampled.pop()

    def _end(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            # Out-of-order end: tolerate (drop deeper spans' stack slots)
            # rather than corrupting the stack — tracing must never take
            # the pipeline down.
            if span in self._stack:
                while self._stack and self._stack[-1] is not span:
                    self._stack.pop()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        span.end_ns = span.cursor_ns
        if span.status == STATUS_UNSET:
            span.status = STATUS_OK
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.trace_id == span.trace_id:
            # Sequential layout: the next sibling starts where this span
            # ended on the modelled timeline.
            if span.end_ns > parent.cursor_ns:
                parent.cursor_ns = span.end_ns
        self.spans_ended += 1
        self.store.add(span)
        for callback in self._end_callbacks:
            callback(span)

    # ------------------------------------------------------------------
    # Context and observers
    # ------------------------------------------------------------------
    def recording(self) -> bool:
        """Would a span opened now record anything?

        False only inside an open unsampled subtree — the guard that lets
        hot call sites (``if tracer.enabled and tracer.recording()``)
        skip even the fast-path span objects and the attribute values
        they would discard.  With no span open at all this is True: the
        next span starts a fresh root whose head decision has not been
        made yet.
        """
        return bool(self._stack) or not self._unsampled

    def current_context(self) -> Optional[TraceContext]:
        """The innermost open span's context, for header injection.

        An open unsampled subtree still yields a context (with
        ``sampled=False``), so the not-sampled decision propagates to
        downstream participants instead of letting them re-roll it.
        """
        if self._stack:
            return self._stack[-1].context
        if self._unsampled:
            return self._unsampled[-1].context
        return None

    def on_span_end(self, callback: Callable[[Span], None]) -> None:
        """Run ``callback`` on every finished span (self-telemetry feed)."""
        self._end_callbacks.append(callback)


class _NoopSpan:
    """The shared do-nothing span; every method is a pass."""

    __slots__ = ()

    recording = False
    context = None
    events: tuple = ()
    attributes: dict = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def add_event(self, name: str, **attributes: object) -> None:
        pass

    def add_virtual_time(self, delta_ns: int) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


#: The shared no-op span instance.
NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """The disabled tracer: hands out :data:`NOOP_SPAN`, stores nothing."""

    enabled = False
    store = None
    sampler = None
    spans_started = 0
    spans_ended = 0
    traces_started = 0
    traces_sampled_out = 0
    spans_unsampled = 0

    def span(self, name, attributes=None, parent=None) -> _NoopSpan:  # noqa: D102
        return NOOP_SPAN

    def recording(self) -> bool:  # noqa: D102
        return False

    def current_context(self) -> None:  # noqa: D102
        return None


#: The shared no-op tracer — the off-by-default fast path.
NOOP_TRACER = NoopTracer()
