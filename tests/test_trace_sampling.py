"""Adaptive tracing: head sampling, tail keep rules, store edge cases.

The tentpole contract under test: the head decision is seeded and made
once per trace (byte-identical decisions and journals across same-seed
runs), sampled-out traces take a fast path that touches no store and
draws no span ids, the flags byte round-trips through ``traceparent``,
and the tail rules never lose an interesting trace — including late
spans arriving after their trace was judged and dropped.
"""

import pytest

from repro.errors import DeploymentError
from repro.experiments.common import make_sgx_host
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng
from repro.teemon.config import TeemonConfig
from repro.teemon.deploy import deploy
from repro.trace import (
    HeadSampler,
    TailRules,
    TraceContext,
    Tracer,
    TraceStore,
    format_traceparent,
    parse_traceparent,
)
from repro.trace.sampling import (
    DROP,
    KEEP_ERROR,
    KEEP_FAULT_EVENT,
    KEEP_RETRY,
    KEEP_SLOW,
)


def make_tracer(seed=7, probability=None, tail=False, **store_kwargs):
    rng = DeterministicRng(seed)
    rules = TailRules() if tail else None
    store = TraceStore(tail_rules=rules, **store_kwargs)
    sampler = None
    if probability is not None:
        sampler = HeadSampler(probability, rng=rng)
    return Tracer(VirtualClock(), rng=rng, store=store, sampler=sampler)


# ---------------------------------------------------------------------------
# Head sampler: determinism and extremes
# ---------------------------------------------------------------------------
def test_same_seed_samplers_agree_on_every_decision():
    ids = [f"{n:032x}" for n in range(1, 400)]
    a = HeadSampler(0.5, rng=DeterministicRng(3))
    b = HeadSampler(0.5, rng=DeterministicRng(3))
    decisions_a = [a.sample(i) for i in ids]
    assert decisions_a == [b.sample(i) for i in ids]
    # A real split: both outcomes occur at p=0.5.
    assert 0 < sum(decisions_a) < len(ids)
    # A different seed rolls a different salt, hence different decisions.
    c = HeadSampler(0.5, rng=DeterministicRng(4))
    assert decisions_a != [c.sample(i) for i in ids]


def test_probability_extremes_and_counters():
    ids = [f"{n:032x}" for n in range(1, 100)]
    keep_all = HeadSampler(1.0, rng=DeterministicRng(1))
    assert all(keep_all.sample(i) for i in ids)
    assert keep_all.decisions == keep_all.sampled_in == len(ids)
    drop_all = HeadSampler(0.0, rng=DeterministicRng(1))
    assert not any(drop_all.sample(i) for i in ids)
    assert drop_all.decisions == len(ids) and drop_all.sampled_in == 0


def test_sampler_rejects_bad_probability():
    with pytest.raises(ValueError):
        HeadSampler(1.5)
    with pytest.raises(ValueError):
        HeadSampler(-0.1)


def test_sampled_fraction_tracks_probability():
    ids = [f"{n:032x}" for n in range(1, 2001)]
    sampler = HeadSampler(0.25, rng=DeterministicRng(9))
    kept = sum(sampler.sample(i) for i in ids)
    assert 0.15 < kept / len(ids) < 0.35


# ---------------------------------------------------------------------------
# The flags byte through traceparent
# ---------------------------------------------------------------------------
def test_traceparent_flags_round_trip():
    trace_id, span_id = "ab" * 16, "cd" * 8
    sampled = format_traceparent(trace_id, span_id, sampled=True)
    assert sampled.endswith("-01")
    not_sampled = format_traceparent(trace_id, span_id, sampled=False)
    assert not_sampled.endswith("-00")
    assert parse_traceparent(sampled).sampled is True
    context = parse_traceparent(not_sampled)
    assert context.sampled is False
    assert context.trace_id == trace_id and context.span_id == span_id


def test_unsampled_context_formats_not_sampled_flags():
    tracer = make_tracer(probability=0.0)
    with tracer.span("root"):
        context = tracer.current_context()
        assert context is not None and context.sampled is False
        assert context.to_traceparent().endswith("-00")


# ---------------------------------------------------------------------------
# The unsampled fast path
# ---------------------------------------------------------------------------
def test_sampled_out_trace_touches_no_store_and_draws_no_span_ids():
    tracer = make_tracer(seed=13, probability=0.0)
    # The fast path draws the trace id (the decision needs it) and
    # nothing else: span ids derive from the trace id.
    ids = DeterministicRng(13).fork("trace-ids")
    expected = [f"{ids.getrandbits(128) or 1:032x}" for _ in range(3)]
    seen = []
    for _ in range(3):
        with tracer.span("root", {"ignored": True}) as root:
            seen.append(root.trace_id)
            assert root.span_id in (root.trace_id[16:], root.trace_id[:16])
            with tracer.span("child") as child:
                assert child is root  # one shared object per subtree
                child.set_attribute("also", "ignored")
                child.add_event("noise")
    assert seen == expected  # exactly one 128-bit draw per trace
    assert tracer.spans_started == 0 and tracer.spans_ended == 0
    assert tracer.traces_started == 3 and tracer.traces_sampled_out == 3
    assert tracer.spans_unsampled == 6
    assert len(tracer.store) == 0 and tracer.store.spans_stored == 0


def test_unsampled_depth_counter_closes_subtree_at_outermost_exit():
    tracer = make_tracer(probability=0.0)
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                assert tracer.current_context() is not None
        assert tracer.current_context() is not None
    assert tracer.current_context() is None
    assert tracer.recording()  # next span starts a fresh root


def test_explicit_unsampled_parent_keeps_continuation_cheap():
    # The retry case: the continuation re-enters via the captured context.
    tracer = make_tracer(probability=0.0)
    with tracer.span("root"):
        context = tracer.current_context()
    with tracer.span("retry", parent=context) as retry:
        assert retry.trace_id == context.trace_id
        assert not retry.recording
    assert tracer.spans_started == 0 and len(tracer.store) == 0


def test_recording_predicate_gates_only_unsampled_subtrees():
    tracer = make_tracer(probability=1.0)
    assert tracer.recording()
    with tracer.span("root"):
        assert tracer.recording()
    dropper = make_tracer(probability=0.0)
    with dropper.span("root"):
        assert not dropper.recording()
    assert dropper.recording()


def test_same_seed_sampled_journals_are_byte_identical():
    def journal(seed):
        tracer = make_tracer(seed=seed, probability=0.5)
        for n in range(40):
            with tracer.span(f"op-{n % 5}") as root:
                root.add_virtual_time(1000 * n)
                with tracer.span("inner"):
                    pass
        return tracer.store.journal_text()

    first = journal(21)
    assert first == journal(21)
    assert first != journal(22)
    assert first  # some traces actually sampled in at p=0.5


# ---------------------------------------------------------------------------
# Tail keep rules
# ---------------------------------------------------------------------------
def finished_trace(build):
    """Run ``build`` against a fresh full-recording tracer; returns spans."""
    tracer = make_tracer(probability=None)
    build(tracer)
    store = tracer.store
    return store.get(store.latest())


def test_tail_rules_keep_matrix():
    rules = TailRules(slow_span_ns=int(0.25 * NANOS_PER_SEC))

    def boring(tracer):
        with tracer.span("scrape.cycle"):
            pass

    def error(tracer):
        with tracer.span("scrape.cycle") as span:
            span.set_status("error")

    def fault_event(tracer):
        with tracer.span("scrape.cycle") as span:
            span.add_event("scrape.timeout", latency_s=2.0)

    def retry(tracer):
        with tracer.span("scrape.cycle"):
            with tracer.span("scrape.retry"):
                pass

    def slow(tracer):
        with tracer.span("scrape.cycle") as span:
            span.add_virtual_time(int(0.3 * NANOS_PER_SEC))

    assert rules.evaluate(finished_trace(boring)) == (False, DROP)
    assert rules.evaluate(finished_trace(error)) == (True, KEEP_ERROR)
    assert rules.evaluate(finished_trace(fault_event)) == \
        (True, KEEP_FAULT_EVENT)
    assert rules.evaluate(finished_trace(retry)) == (True, KEEP_RETRY)
    assert rules.evaluate(finished_trace(slow)) == (True, KEEP_SLOW)


def test_tail_rules_error_outranks_other_reasons():
    def error_and_everything(tracer):
        with tracer.span("scrape.cycle") as span:
            span.add_event("scrape.timeout")
            span.add_virtual_time(NANOS_PER_SEC)
            with tracer.span("scrape.retry") as retry_span:
                retry_span.set_status("error")

    rules = TailRules()
    assert rules.evaluate(finished_trace(error_and_everything)) == \
        (True, KEEP_ERROR)


def test_tail_rules_reject_negative_threshold():
    with pytest.raises(ValueError):
        TailRules(slow_span_ns=-1)


# ---------------------------------------------------------------------------
# Tail-sampling store: pending, lag, flush, resurrection
# ---------------------------------------------------------------------------
def test_tail_store_judges_after_completion_lag():
    tracer = make_tracer(tail=True)
    store = tracer.store

    def cycle(status="ok"):
        with tracer.span("scrape.cycle") as span:
            if status == "error":
                span.set_status("error")

    cycle("error")
    # Complete, but within the lag window: not yet judged.
    assert store.pending_count() == 1 and len(store) == 0
    cycle()
    cycle()
    # The third completion pushes the first past PENDING_LAG.
    assert len(store) == 1 and store.traces_kept == 1
    assert store.keep_reasons == {"error": 1}
    cycle()
    assert store.traces_dropped == 1  # the first boring cycle, judged


def test_flush_pending_judges_everything_now():
    tracer = make_tracer(tail=True)
    store = tracer.store
    with tracer.span("scrape.cycle") as span:
        span.set_status("error")
    with tracer.span("scrape.cycle"):
        pass
    store.flush_pending()
    assert store.pending_count() == 0
    assert store.traces_kept == 1 and store.traces_dropped == 1
    assert store.dropped_reason(store.trace_ids()[0]) is None


def test_late_interesting_span_resurrects_a_dropped_trace():
    tracer = make_tracer(tail=True)
    store = tracer.store
    with tracer.span("scrape.cycle"):
        pass
    dropped_context = None
    with tracer.span("scrape.cycle"):
        dropped_context = tracer.current_context()
    store.flush_pending()
    assert store.traces_dropped == 2
    assert store.dropped_reason(dropped_context.trace_id) == DROP
    # A late retry span continuing the dropped trace: resurrected.
    with tracer.span("scrape.retry", parent=dropped_context):
        pass
    assert store.traces_resurrected == 1
    assert dropped_context.trace_id in store.trace_ids()
    assert [s.name for s in store.get(dropped_context.trace_id)] == \
        ["scrape.retry"]
    assert store.keep_reasons.get("retry") == 1


def test_late_boring_span_to_dropped_trace_is_dropped_too():
    tracer = make_tracer(tail=True)
    store = tracer.store
    context = None
    with tracer.span("scrape.cycle"):
        context = tracer.current_context()
    store.flush_pending()
    with tracer.span("scrape.cycle", parent=context):
        pass
    assert store.traces_resurrected == 0
    assert store.spans_dropped == 2  # the original root + the late span
    assert context.trace_id not in store.trace_ids()


def test_pending_overflow_forces_verdict_on_incomplete_traces():
    # Traces whose root never completes (spans joining via explicit
    # parents) pile up in pending; the buffer bound alone must force
    # verdicts, oldest first, instead of growing without limit.
    tracer = make_tracer(tail=True, pending_max_traces=2)
    store = tracer.store
    for n in range(1, 5):
        parent = TraceContext(trace_id=f"{n:032x}", span_id="ab" * 8)
        name = "scrape.retry" if n == 1 else "scrape.flush"
        with tracer.span(name, parent=parent):
            pass
    assert store.pending_count() == 2
    assert store.traces_kept == 1  # the retry-bearing oldest trace
    assert f"{1:032x}" in store.trace_ids()
    assert store.traces_dropped == 1  # the second, boring trace


# ---------------------------------------------------------------------------
# Store edge cases (with and without tail mode)
# ---------------------------------------------------------------------------
def test_trace_evicted_while_spans_still_arriving():
    tracer = make_tracer(max_traces=2)
    store = tracer.store
    first_context = None
    with tracer.span("alpha"):
        first_context = tracer.current_context()
    for _ in range(2):
        with tracer.span("beta"):
            pass
    assert store.traces_evicted == 1
    assert first_context.trace_id not in store.trace_ids()
    # A straggler span for the evicted trace re-enters as a fresh entry
    # (partial trace) instead of crashing or resurrecting old spans.
    with tracer.span("alpha.late", parent=first_context):
        pass
    assert [s.name for s in store.get(first_context.trace_id)] == \
        ["alpha.late"]
    assert store.traces_evicted == 2  # it displaced the oldest beta


def test_store_capacity_one_holds_only_the_newest_trace():
    tracer = make_tracer(max_traces=1)
    store = tracer.store
    for n in range(5):
        with tracer.span(f"op-{n}"):
            pass
    assert len(store) == 1 and store.traces_evicted == 4
    assert store.get(store.latest())[0].name == "op-4"


def test_latest_by_name_after_eviction():
    tracer = make_tracer(max_traces=2)
    store = tracer.store
    with tracer.span("alpha"):
        pass
    with tracer.span("beta"):
        pass
    with tracer.span("beta"):
        pass
    assert store.latest(name="alpha") is None  # evicted
    latest_beta = store.latest(name="beta")
    assert latest_beta == store.trace_ids()[-1]
    assert store.get(latest_beta)[0].name == "beta"


def test_get_returns_fresh_start_ordered_copies():
    tracer = make_tracer()
    store = tracer.store
    with tracer.span("root") as root:
        root.add_virtual_time(500)
        with tracer.span("child"):
            pass
    trace_id = store.latest()
    first = store.get(trace_id)
    assert [s.name for s in first] == ["root", "child"]
    first.clear()  # a caller mutating its copy must not corrupt the view
    again = store.get(trace_id)
    assert [s.name for s in again] == ["root", "child"]
    # Cache invalidation: a late span shows up in the next view.
    with tracer.span("late", parent=again[0].context):
        pass
    assert "late" in [s.name for s in store.get(trace_id)]


# ---------------------------------------------------------------------------
# Deployment integration: profile defaults and trace self-series
# ---------------------------------------------------------------------------
INTERVAL_NS = 5 * NANOS_PER_SEC


def test_trace_self_series_are_queryable_via_promql():
    kernel, _ = make_sgx_host(seed=17)
    deployment = deploy(kernel, TeemonConfig(
        enable_tracing=True, trace_sampling_probability=0.5,
        trace_tail_sampling=True,
    ), start=False)
    for _ in range(6):
        kernel.clock.advance(INTERVAL_NS)
        deployment.scrape_manager.scrape_once()
    now = kernel.clock.now_ns
    stats = deployment.session.trace_stats()
    for metric, key in [
        ("teemon_trace_traces_sampled_out_total", "traces_sampled_out"),
        ("teemon_trace_spans_unsampled_total", "spans_unsampled"),
        ("teemon_trace_traces_dropped_total", "traces_dropped"),
    ]:
        vector = deployment.engine.instant(metric, now)
        assert vector, f"{metric} must be scraped into the TSDB"
        assert vector[0][1] <= float(stats[key])  # scraped at a past instant
        assert vector[0][0].get("job") == "teemon_self"
    pending = deployment.engine.instant("teemon_trace_pending_traces", now)
    assert pending and pending[0][1] >= 0.0


def test_span_metrics_default_follows_sampling_mode():
    # Pin the probability: the traced test profile defaults it to 0.25.
    assert TeemonConfig(
        enable_tracing=True, trace_sampling_probability=None
    ).span_metrics_enabled()
    assert TeemonConfig(
        enable_tracing=True, trace_sampling_probability=1.0
    ).span_metrics_enabled()
    assert not TeemonConfig(
        enable_tracing=True, trace_sampling_probability=0.5
    ).span_metrics_enabled()


def test_sampled_deployment_drops_span_duration_histogram():
    kernel, _ = make_sgx_host(seed=17)
    deployment = deploy(kernel, TeemonConfig(
        enable_tracing=True, trace_sampling_probability=0.1,
    ), start=False)
    kernel.clock.advance(INTERVAL_NS)
    deployment.scrape_manager.scrape_once()
    url = deployment.self_exporter.url
    body = deployment.network.get_url(url).body
    assert "teemon_span_duration_seconds" not in body
    assert "teemon_trace_traces_sampled_out_total" in body


def test_config_rejects_bad_sampling_settings():
    with pytest.raises(DeploymentError):
        TeemonConfig(trace_sampling_probability=1.5)
