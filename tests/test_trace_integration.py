"""End-to-end tracing: one scrape cycle, one trace, exemplars resolvable.

These tests drive real deployments (and a lighter manual rig for retry
scheduling) and assert the PR's acceptance behaviours: a scrape cycle
produces one connected trace spanning net → scrape → parse → tsdb; rule
evaluation traces carry the plan-cache outcome; ``teemon_self`` histogram
samples carry exemplars that resolve to stored traces; and same-seed runs
produce byte-identical trace journals.
"""

import pytest

from repro.errors import DeploymentError
from repro.experiments.common import make_sgx_host
from repro.net.http import HttpNetwork
from repro.openmetrics import CollectorRegistry, encode_registry
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.teemon.config import TeemonConfig
from repro.teemon.deploy import deploy
from repro.trace import TRACEPARENT_HEADER, Tracer, TraceStore
from repro.trace.store import DEFAULT_MAX_TRACES

INTERVAL_NS = 5 * NANOS_PER_SEC


def traced_deployment(seed=7, cycles=3, **config_kwargs):
    kernel, _ = make_sgx_host(seed=seed)
    # Pin the sampling probability: these tests assert on *every* trace,
    # so they must hold regardless of the test profile's default.
    config_kwargs.setdefault("trace_sampling_probability", 1.0)
    deployment = deploy(
        kernel, TeemonConfig(enable_tracing=True, **config_kwargs),
        start=False,
    )
    for _ in range(cycles):
        kernel.clock.advance(INTERVAL_NS)
        deployment.scrape_manager.scrape_once()
        deployment.rule_evaluator.evaluate_all_once()
    return deployment


# ---------------------------------------------------------------------------
# The scrape-cycle trace
# ---------------------------------------------------------------------------
def test_scrape_cycle_produces_one_connected_trace():
    deployment = traced_deployment()
    store = deployment.trace_store
    spans = store.get(store.latest(name="scrape.cycle"))
    assert len(spans) >= 6
    names = {span.name for span in spans}
    assert {"scrape.cycle", "scrape.target", "net.http.get",
            "openmetrics.parse", "tsdb.append"} <= names
    roots = [s for s in spans if s.parent_id is None]
    assert [r.name for r in roots] == ["scrape.cycle"]
    # Connected: every non-root span's parent is in the same trace.
    ids = {s.span_id for s in spans}
    assert all(s.parent_id in ids for s in spans if s.parent_id)


def test_scrape_trace_spans_carry_modelled_time():
    deployment = traced_deployment()
    store = deployment.trace_store
    spans = store.get(store.latest(name="scrape.cycle"))
    cycle = next(s for s in spans if s.name == "scrape.cycle")
    gets = [s for s in spans if s.name == "net.http.get"]
    assert cycle.duration_ns > 0
    assert all(g.duration_ns > 0 for g in gets)
    # Children lie inside the cycle span on the virtual timeline.
    assert all(
        cycle.start_ns <= s.start_ns and s.end_ns <= cycle.end_ns
        for s in spans
    )


def test_traceparent_header_reaches_the_exporter_and_echoes_back():
    deployment = traced_deployment(cycles=1)
    tracer = deployment.tracer
    network = deployment.network
    url = deployment.exporters["node"].url
    with tracer.span("probe") as span:
        context = tracer.current_context()
        response = network.get_url(
            url, headers={TRACEPARENT_HEADER: context.to_traceparent()}
        )
    assert response.ok
    assert response.headers[TRACEPARENT_HEADER] == \
        f"00-{span.trace_id}-{span.span_id}-01"


# ---------------------------------------------------------------------------
# Rule-evaluation traces and the plan cache
# ---------------------------------------------------------------------------
def test_rule_trace_records_plan_cache_outcome():
    deployment = traced_deployment()
    store = deployment.trace_store
    spans = store.get(store.latest(name="rules.group"))
    names = [s.name for s in spans]
    assert "rules.group" in names and "rules.rule" in names
    parses = [s for s in spans if s.name == "query.parse"]
    assert parses
    # By the third evaluation every rule query is a plan-cache hit.
    assert all(dict(s.attributes)["plan_cache_hit"] is True for s in parses)


def test_first_evaluation_is_a_plan_cache_miss():
    deployment = traced_deployment(cycles=1)
    store = deployment.trace_store
    first_rules = next(
        tid for tid in store.trace_ids()
        if store.get(tid)[0].name == "rules.group"
    )
    parses = [s for s in store.get(first_rules) if s.name == "query.parse"]
    assert parses
    assert all(dict(s.attributes)["plan_cache_hit"] is False for s in parses)


# ---------------------------------------------------------------------------
# Exemplars end-to-end
# ---------------------------------------------------------------------------
def test_self_histogram_exemplar_resolves_to_stored_trace():
    deployment = traced_deployment(cycles=4)
    manager = deployment.scrape_manager
    exemplar = manager.exemplar_for("teemon_span_duration_seconds_bucket")
    assert exemplar is not None
    labels = exemplar.labels_dict()
    assert set(labels) == {"trace_id", "span_id"}
    spans = deployment.trace_store.get(labels["trace_id"])
    assert spans, "exemplar's trace must still be in the store"
    assert any(s.span_id == labels["span_id"] for s in spans)


def test_self_counters_are_queryable_via_promql():
    kernel, _ = make_sgx_host(seed=13)
    deployment = deploy(kernel, TeemonConfig(
        enable_tracing=True, trace_sampling_probability=1.0,
    ), start=False)
    # A target that never resolves forces failures and retries.
    deployment.scrape_manager.add_target(ScrapeTarget(
        job="ghost", instance="ghost", url="http://ghost:1/metrics"
    ))
    for _ in range(20):
        kernel.clock.advance(INTERVAL_NS)
        deployment.scrape_manager.scrape_once()
    kernel.clock.run_until(kernel.clock.now_ns)  # drain retry timers
    vector = deployment.engine.instant(
        "rate(teemon_scrape_retries_total[1m])", kernel.clock.now_ns
    )
    assert vector, "self-telemetry series must be scraped and rate()-able"
    assert vector[0][1] > 0
    assert vector[0][0].get("job") == "teemon_self"
    # The served mapping is the manager's own counters.
    stats = deployment.scrape_manager.self_stats()
    assert stats["retries_total"] == \
        deployment.scrape_manager.retries_total > 0


# ---------------------------------------------------------------------------
# Retry continuity
# ---------------------------------------------------------------------------
def test_retry_joins_the_original_cycle_trace():
    clock = VirtualClock()
    network = HttpNetwork()
    store = TraceStore()
    rng = DeterministicRng(5)
    tracer = Tracer(clock, rng=rng, store=store)
    manager = ScrapeManager(
        clock, network, Tsdb(), interval_ns=INTERVAL_NS,
        max_retries=2, rng=rng, tracer=tracer,
    )
    manager.add_target(ScrapeTarget(
        job="j", instance="i", url="http://missing:9100/metrics"
    ))
    clock.advance(INTERVAL_NS)
    manager.scrape_once()
    cycle_trace = store.latest(name="scrape.cycle")
    clock.advance(INTERVAL_NS // 2)  # let the backoff timer fire
    spans = store.get(cycle_trace)
    retries = [s for s in spans if s.name == "scrape.retry"]
    assert retries, "the retry span must join the cycle's trace"
    assert manager.retries_total >= 1
    failed = [s for s in spans if s.name == "scrape.target"]
    assert all(s.status == "error" for s in failed)
    assert any(
        e.name == "scrape.retry_scheduled"
        for s in failed for e in s.events
    )


# ---------------------------------------------------------------------------
# Determinism at deployment scale
# ---------------------------------------------------------------------------
def test_same_seed_deployments_emit_identical_trace_journals():
    journal_a = traced_deployment(seed=21).trace_store.journal_text()
    journal_b = traced_deployment(seed=21).trace_store.journal_text()
    journal_c = traced_deployment(seed=22).trace_store.journal_text()
    assert journal_a == journal_b
    assert journal_a != journal_c


# ---------------------------------------------------------------------------
# Session API and the disabled path
# ---------------------------------------------------------------------------
def test_session_trace_accessors_and_rendering():
    deployment = traced_deployment()
    session = deployment.session
    assert session.traces()
    spans = session.trace()  # newest
    assert spans
    text = session.render_trace(width=100)
    assert "trace " in text and "|" in text
    folded = session.render_trace_flamegraph()
    assert any(";" in line for line in folded.splitlines())


def test_tracing_disabled_is_inert_and_session_raises():
    kernel, _ = make_sgx_host(seed=7)
    deployment = deploy(kernel, TeemonConfig(enable_tracing=False), start=False)
    assert deployment.trace_store is None
    assert deployment.tracer.enabled is False
    kernel.clock.advance(INTERVAL_NS)
    deployment.scrape_manager.scrape_once()
    assert deployment.tracer.store is None
    with pytest.raises(DeploymentError):
        deployment.session.traces()
    with pytest.raises(DeploymentError):
        deployment.session.render_trace()


def test_trace_store_bound_is_enforced_at_deployment():
    # Two traces a cycle (scrape and rules): enough cycles to overflow
    # the store a deployment builds.
    deployment = traced_deployment(cycles=DEFAULT_MAX_TRACES // 2 + 4)
    store = deployment.trace_store
    assert store.max_traces == DEFAULT_MAX_TRACES
    assert len(store) <= DEFAULT_MAX_TRACES
    assert store.traces_evicted > 0
