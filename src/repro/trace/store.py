"""Bounded in-memory trace storage with per-trace lookup.

Finished spans are appended in end order, grouped by trace id.  The store
is bounded by *trace count* — a long-lived deployment tracing every scrape
cycle evicts whole old traces FIFO rather than truncating recent ones —
and exposes a canonical text journal, the determinism witness: two
same-seed runs of the same workload must produce byte-identical journals
(asserted by the chaos suite, like fault journals).

With :class:`~repro.trace.sampling.TailRules` attached, the store runs in
*tail-sampling* mode: finished spans accumulate in a bounded pending
buffer, and a trace is only promoted to the store once complete (its root
span ended, plus a small lag window so late spans — retries continuing
the cycle's trace — can still join) *and* the keep rules match.  Dropped
trace ids are remembered so a late-arriving interesting span (an error, a
retry) can resurrect its trace rather than vanish: fault-bearing traces
are never lost to tail sampling.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.sampling import TailRules
    from repro.trace.tracer import Span

#: Default trace capacity: generous for demos, bounded for soak runs.
DEFAULT_MAX_TRACES = 256

#: Default bound of the tail-sampling pending buffer (whole traces).
DEFAULT_PENDING_MAX_TRACES = 64

#: Completed pending traces are held back this many completions before
#: the keep/drop verdict, so late spans (retries fire on a backoff timer
#: well inside the next scrape interval) still join their trace.
PENDING_LAG = 2

#: How many dropped trace ids to remember for the resurrection path.
DROPPED_MEMORY = 1024


class TraceStore:
    """Holds finished spans, grouped and evictable by trace."""

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        tail_rules: Optional["TailRules"] = None,
        pending_max_traces: int = DEFAULT_PENDING_MAX_TRACES,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"trace capacity must be >= 1, got {max_traces}")
        if pending_max_traces < 1:
            raise ValueError(
                f"pending capacity must be >= 1, got {pending_max_traces}"
            )
        self.max_traces = max_traces
        self.tail_rules = tail_rules
        self.pending_max_traces = pending_max_traces
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        #: Lazily built start-order views, invalidated on append.
        self._sorted_views: Dict[str, List["Span"]] = {}
        #: Tail mode: completed-but-not-yet-judged traces, insertion order.
        self._pending: "OrderedDict[str, List[Span]]" = OrderedDict()
        #: Tail mode: pending trace ids whose root span has ended, in
        #: completion order (the finalization queue).
        self._complete: List[str] = []
        #: Tail mode: recently dropped trace ids -> drop reason.
        self._dropped: "OrderedDict[str, str]" = OrderedDict()
        self.spans_stored = 0
        self.traces_evicted = 0
        self.traces_kept = 0
        self.traces_dropped = 0
        self.spans_dropped = 0
        self.traces_resurrected = 0
        #: Tail keep verdicts by reason (``error`` / ``fault-event`` /
        #: ``retry`` / ``slow-span``).
        self.keep_reasons: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def add(self, span: "Span") -> None:
        """Store one finished span, evicting the oldest trace past capacity.

        In tail-sampling mode the span lands in the pending buffer first;
        the whole trace is judged against the keep rules once complete.
        """
        if self.tail_rules is None:
            self._insert(span)
            return
        trace_id = span.trace_id
        if trace_id in self._traces:
            # Late span joining an already-kept trace.
            self._insert(span)
            return
        if trace_id in self._dropped:
            # Late span to a dropped trace: interesting spans resurrect
            # their trace (partially), boring ones are dropped too.
            keep, reason = self.tail_rules.matches_span(span)
            if keep:
                del self._dropped[trace_id]
                self.traces_resurrected += 1
                self.traces_kept += 1
                self.keep_reasons[reason] = (
                    self.keep_reasons.get(reason, 0) + 1
                )
                self._insert(span)
            else:
                self.spans_dropped += 1
            return
        spans = self._pending.get(trace_id)
        if spans is None:
            spans = self._pending[trace_id] = []
        spans.append(span)
        if span.parent_id is None:
            # The root ended: the trace is complete, queue the verdict.
            self._complete.append(trace_id)
        while len(self._complete) > PENDING_LAG:
            self._finalize(self._complete.pop(0))
        while len(self._pending) > self.pending_max_traces:
            oldest = next(iter(self._pending))
            if oldest in self._complete:
                self._complete.remove(oldest)
            self._finalize(oldest)

    def _insert(self, span: "Span") -> None:
        """Append one span to the kept store (the pre-tail behaviour)."""
        spans = self._traces.get(span.trace_id)
        if spans is None:
            spans = self._traces[span.trace_id] = []
            while len(self._traces) > self.max_traces:
                evicted, _ = self._traces.popitem(last=False)
                self._sorted_views.pop(evicted, None)
                self.traces_evicted += 1
        spans.append(span)
        self._sorted_views.pop(span.trace_id, None)
        self.spans_stored += 1

    def _finalize(self, trace_id: str) -> None:
        """Judge one pending trace against the keep rules."""
        spans = self._pending.pop(trace_id, None)
        if not spans:
            return
        keep, reason = self.tail_rules.evaluate(spans)
        if keep:
            self.traces_kept += 1
            self.keep_reasons[reason] = self.keep_reasons.get(reason, 0) + 1
            for span in spans:
                self._insert(span)
        else:
            self.traces_dropped += 1
            self.spans_dropped += len(spans)
            self._dropped[trace_id] = reason
            while len(self._dropped) > DROPPED_MEMORY:
                self._dropped.popitem(last=False)

    def flush_pending(self) -> None:
        """Judge every pending trace now (end-of-run / test hook)."""
        self._complete.clear()
        while self._pending:
            self._finalize(next(iter(self._pending)))

    def pending_count(self) -> int:
        """Traces awaiting a tail verdict."""
        return len(self._pending)

    def dropped_reason(self, trace_id: str) -> Optional[str]:
        """Why a trace was tail-dropped (None if unknown/kept)."""
        return self._dropped.get(trace_id)

    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> List["Span"]:
        """All spans of one trace, in start order (empty if unknown).

        The start-order view is cached per trace and invalidated on
        append, so repeated renders of the same trace (waterfall +
        flamegraph on one dashboard) sort once, not per call.
        """
        view = self._sorted_views.get(trace_id)
        if view is None:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._pending.get(trace_id)
                if spans is None:
                    return []
                # Pending traces are transient: sort, don't cache.
                return sorted(spans, key=lambda s: (s.start_ns, s.seq))
            view = sorted(spans, key=lambda s: (s.start_ns, s.seq))
            self._sorted_views[trace_id] = view
        return list(view)

    def trace_ids(self) -> List[str]:
        """Stored (kept) trace ids, oldest first."""
        return list(self._traces)

    def latest(self, name: Optional[str] = None) -> Optional[str]:
        """The newest trace id — optionally the newest whose *root* span
        (no parent) is named ``name``."""
        for trace_id in reversed(self._traces):
            if name is None:
                return trace_id
            if any(s.parent_id is None and s.name == name
                   for s in self._traces[trace_id]):
                return trace_id
        return None

    def __len__(self) -> int:
        return len(self._traces)

    def span_count(self) -> int:
        """Spans currently held (evicted traces excluded)."""
        return sum(len(spans) for spans in self._traces.values())

    # ------------------------------------------------------------------
    # Determinism witness
    # ------------------------------------------------------------------
    def journal_text(self) -> str:
        """Every stored span as canonical text (byte-comparable).

        Traces appear in insertion order; spans within a trace in end
        order, which is deterministic because the simulation is.  In
        tail mode only *kept* traces appear, in finalization order —
        still deterministic, because completion order is.
        """
        lines: List[str] = []
        for spans in self._traces.values():
            lines.extend(span.line() for span in spans)
        return "\n".join(lines)
