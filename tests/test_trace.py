"""Unit tests for the virtual-clock tracing subsystem (repro.trace)."""

import pytest

from repro.pmv.trace_view import render_flamegraph, render_waterfall
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.trace import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    TraceContext,
    Tracer,
    TraceStore,
    format_traceparent,
    parse_traceparent,
)


def make_tracer(seed=1, store=None):
    return Tracer(VirtualClock(), rng=DeterministicRng(seed), store=store)


# ---------------------------------------------------------------------------
# W3C trace context
# ---------------------------------------------------------------------------
def test_traceparent_round_trip():
    header = format_traceparent("ab" * 16, "cd" * 8)
    context = parse_traceparent(header)
    assert context == TraceContext("ab" * 16, "cd" * 8)
    assert context.to_traceparent() == header


def test_traceparent_shape():
    header = format_traceparent("0" * 31 + "1", "0" * 15 + "2")
    version, trace_id, span_id, flags = header.split("-")
    assert version == "00"
    assert len(trace_id) == 32
    assert len(span_id) == 16
    assert flags == "01"


@pytest.mark.parametrize("bad", [
    "",
    "not-a-traceparent",
    "00-short-abcdefabcdefabcd-01",
    "00-" + "g" * 32 + "-" + "a" * 16 + "-01",   # non-hex trace id
    "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",   # unknown version
    "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # all-zero trace id
    "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
])
def test_malformed_traceparent_returns_none(bad):
    assert parse_traceparent(bad) is None


# ---------------------------------------------------------------------------
# Tracer and spans
# ---------------------------------------------------------------------------
def test_root_span_starts_new_trace():
    tracer = make_tracer()
    with tracer.span("root") as span:
        assert span.parent_id is None
        assert len(span.trace_id) == 32
        assert len(span.span_id) == 16
    assert tracer.traces_started == 1


def test_nested_spans_share_trace_and_parent():
    tracer = make_tracer()
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id


def test_current_context_reflects_innermost_span():
    tracer = make_tracer()
    assert tracer.current_context() is None
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            context = tracer.current_context()
            assert context.trace_id == root.trace_id
            assert context.span_id == child.span_id
    assert tracer.current_context() is None


def test_virtual_time_cursor_lays_children_sequentially():
    tracer = make_tracer()
    with tracer.span("root") as root:
        with tracer.span("first") as first:
            first.add_virtual_time(100)
        with tracer.span("second") as second:
            second.add_virtual_time(50)
    # Children execute at one clock instant, but modelled time lays them
    # out one after the other on the trace timeline.
    assert first.start_ns == root.start_ns
    assert second.start_ns == first.end_ns
    assert root.end_ns == second.end_ns
    assert root.duration_ns == 150


def test_clock_advance_moves_span_start():
    clock = VirtualClock()
    tracer = Tracer(clock, rng=DeterministicRng(3))
    clock.advance(seconds(5))
    with tracer.span("late") as span:
        pass
    assert span.start_ns == seconds(5)


def test_events_record_at_cursor_with_sorted_attrs():
    tracer = make_tracer()
    with tracer.span("root") as span:
        span.add_virtual_time(10)
        span.add_event("retry", b=2, a=1)
    event = span.events[0]
    assert event.time_ns == span.start_ns + 10
    assert event.name == "retry"
    assert event.attributes == (("a", 1), ("b", 2))


def test_status_ok_by_default_error_on_exception():
    tracer = make_tracer()
    with tracer.span("fine") as fine:
        pass
    assert fine.status == "ok"
    with pytest.raises(ValueError):
        with tracer.span("broken") as broken:
            raise ValueError("boom")
    assert broken.status == "error"
    assert any(e.name == "exception" for e in broken.events)


def test_explicit_parent_context_joins_existing_trace():
    tracer = make_tracer()
    with tracer.span("root") as root:
        saved = root.context
    # No active stack: an explicit parent continues the stored trace
    # (this is how scrape retries fired from clock callbacks rejoin).
    with tracer.span("retry", parent=saved) as retry:
        assert retry.trace_id == saved.trace_id
        assert retry.parent_id == saved.span_id
    assert tracer.traces_started == 1


def test_span_counters():
    tracer = make_tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert tracer.spans_started == 2
    assert tracer.spans_ended == 2
    assert tracer.traces_started == 1


def test_on_span_end_callback_sees_completed_spans():
    tracer = make_tracer()
    ended = []
    tracer.on_span_end(ended.append)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s.name for s in ended] == ["inner", "outer"]
    assert all(s.end_ns is not None for s in ended)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_same_seed_same_ids_different_seed_different_ids():
    def ids(seed):
        tracer = make_tracer(seed)
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                return (a.trace_id, a.span_id, b.span_id)

    assert ids(7) == ids(7)
    assert ids(7) != ids(8)


def test_journal_is_byte_identical_across_same_seed_runs():
    def journal(seed):
        store = TraceStore()
        tracer = make_tracer(seed, store=store)
        for _ in range(3):
            with tracer.span("cycle"):
                with tracer.span("step") as step:
                    step.add_virtual_time(42)
                    step.add_event("mark", n=1)
        return store.journal_text()

    assert journal(11) == journal(11)
    assert journal(11) != journal(12)


# ---------------------------------------------------------------------------
# TraceStore
# ---------------------------------------------------------------------------
def test_store_groups_spans_by_trace():
    store = TraceStore()
    tracer = make_tracer(store=store)
    with tracer.span("one"):
        pass
    with tracer.span("two"):
        with tracer.span("two.child"):
            pass
    assert len(store) == 2
    assert store.span_count() == 3
    two = store.get(store.latest())
    assert {s.name for s in two} == {"two", "two.child"}


def test_store_get_unknown_trace_is_empty():
    assert TraceStore().get("f" * 32) == []


def test_store_evicts_whole_oldest_traces():
    store = TraceStore(max_traces=2)
    tracer = make_tracer(store=store)
    ids = []
    for name in ("a", "b", "c"):
        with tracer.span(name) as span:
            ids.append(span.trace_id)
    assert store.trace_ids() == ids[1:]
    assert store.get(ids[0]) == []
    assert store.traces_evicted == 1


def test_store_rejects_a_capacity_below_one():
    with pytest.raises(ValueError, match="trace capacity"):
        TraceStore(max_traces=0)


def test_store_latest_by_root_name():
    store = TraceStore()
    tracer = make_tracer(store=store)
    with tracer.span("scrape.cycle"):
        pass
    with tracer.span("rules.group"):
        pass
    latest_scrape = store.latest(name="scrape.cycle")
    assert store.get(latest_scrape)[0].name == "scrape.cycle"
    assert store.latest(name="nope") is None


# ---------------------------------------------------------------------------
# No-op tracer
# ---------------------------------------------------------------------------
def test_noop_tracer_is_disabled_and_returns_the_noop_span():
    assert NOOP_TRACER.enabled is False
    assert NOOP_TRACER.store is None
    with NOOP_TRACER.span("anything", {"k": "v"}) as span:
        assert span is NOOP_SPAN
        span.set_attribute("x", 1)
        span.add_event("e", a=2)
        span.add_virtual_time(100)
        span.set_status("error")
    assert NOOP_TRACER.current_context() is None


def test_noop_tracer_propagates_exceptions():
    with pytest.raises(RuntimeError):
        with NoopTracer().span("x"):
            raise RuntimeError("boom")


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------
def build_sample_trace():
    store = TraceStore()
    tracer = make_tracer(store=store)
    with tracer.span("root"):
        with tracer.span("fetch") as fetch:
            fetch.add_virtual_time(1000)
            fetch.add_event("delay", latency_s=0.5)
        with tracer.span("parse") as parse:
            parse.add_virtual_time(500)
    return store.get(store.latest())


def test_waterfall_renders_all_spans_indented():
    text = render_waterfall(build_sample_trace(), width=80)
    lines = text.splitlines()
    assert "trace " in lines[0] and "3 spans" in lines[0]
    assert any(line.lstrip().startswith("root") for line in lines)
    assert any(line.startswith("  fetch") for line in lines)
    assert any(line.startswith("  parse") for line in lines)
    assert any("delay" in line for line in lines)  # event annotation


def test_waterfall_empty_and_deterministic():
    assert render_waterfall([]) == "(empty trace)"
    spans = build_sample_trace()
    assert render_waterfall(spans) == render_waterfall(spans)


def test_flamegraph_folds_stacks_with_self_time():
    folded = render_flamegraph(build_sample_trace())
    lines = dict(
        line.rsplit(" ", 1) for line in folded.splitlines()
    )
    assert lines["root;fetch"] == "1000"
    assert lines["root;parse"] == "500"
    assert lines["root"] == "0"  # all root time is in the children


def test_flamegraph_empty():
    assert render_flamegraph([]) == ""


def test_span_line_format_is_stable():
    tracer = make_tracer()
    with tracer.span("demo", {"k": "v"}) as span:
        span.add_virtual_time(5)
    line = span.line()
    assert line.startswith(span.trace_id)
    assert "demo" in line and "ok" in line
