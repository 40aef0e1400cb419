"""Query plan cache: correctness, eviction, and self-monitoring export."""

import pytest

from repro.errors import QueryError
from repro.pmag.query.engine import QueryEngine, QueryPlanCache
from repro.pmag.query.parser import parse_query
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds

#: The fig11/dashboard query population the rule groups and panels re-issue
#: every cycle — the cache's real-world working set.
FIG11_QUERIES = (
    "ebpf_page_faults_total",
    "ebpf_llc_misses_total",
    "sgx_epc_pages_evicted_total",
    "ebpf_context_switches_total",
    "sum by (name) (rate(ebpf_syscalls_total[1m]))",
    "rate(sgx_epc_pages_evicted_total[1m])",
    "rate(ebpf_context_switches_total[1m])",
    "rate(ebpf_page_faults_total[1m])",
    'ebpf_syscalls_total{name="read"}',
    "avg_over_time(ebpf_llc_misses_total[2m])",
)


def _populated_tsdb() -> Tsdb:
    tsdb = Tsdb()
    metrics = (
        "ebpf_page_faults_total", "ebpf_llc_misses_total",
        "sgx_epc_pages_evicted_total", "ebpf_context_switches_total",
    )
    for step in range(40):
        time_ns = (step + 1) * seconds(5)
        for index, metric in enumerate(metrics):
            tsdb.append_sample(metric, time_ns, float(step * (index + 1)),
                               job="ebpf")
        for name in ("read", "write", "futex"):
            tsdb.append_sample("ebpf_syscalls_total", time_ns,
                               float(step * 3), name=name, job="ebpf")
    return tsdb


# ---------------------------------------------------------------------------
# Cache mechanics
# ---------------------------------------------------------------------------
def test_identical_queries_share_one_ast():
    engine = QueryEngine(Tsdb())
    query = "sum by (name) (rate(ebpf_syscalls_total[1m]))"
    assert engine.parse(query) is engine.parse(query)
    stats = engine.cache_stats()
    assert stats.misses == 1
    assert stats.hits == 1
    assert stats.size == 1


def test_cached_ast_equals_fresh_parse():
    engine = QueryEngine(Tsdb())
    for query in FIG11_QUERIES:
        assert engine.parse(query) == parse_query(query)


def test_eviction_at_capacity():
    cache = QueryPlanCache(capacity=2)
    cache.put("a", parse_query("metric_a"))
    cache.put("b", parse_query("metric_b"))
    cache.put("c", parse_query("metric_c"))
    assert cache.stats().size == 2
    assert cache.evictions == 1
    assert cache.get("a") is None          # least-recently-used went first
    assert cache.get("b") is not None
    assert cache.get("c") is not None


def test_lru_promotion_on_hit():
    cache = QueryPlanCache(capacity=2)
    cache.put("a", parse_query("metric_a"))
    cache.put("b", parse_query("metric_b"))
    assert cache.get("a") is not None      # promote "a"
    cache.put("c", parse_query("metric_c"))
    assert cache.get("a") is not None      # survived: "b" was evicted
    assert cache.get("b") is None


def test_zero_capacity_disables_caching():
    engine = QueryEngine(Tsdb(), plan_cache_size=0)
    engine.parse("metric_a")
    engine.parse("metric_a")
    stats = engine.cache_stats()
    assert stats.size == 0
    assert stats.hits == 0
    assert stats.misses == 2


def test_negative_capacity_rejected():
    with pytest.raises(QueryError):
        QueryPlanCache(capacity=-1)


# ---------------------------------------------------------------------------
# Cached evaluation is observationally identical to uncached evaluation
# ---------------------------------------------------------------------------
def test_results_unchanged_vs_uncached_across_fig11_queries():
    tsdb = _populated_tsdb()
    cached = QueryEngine(tsdb)
    uncached = QueryEngine(tsdb, plan_cache_size=0)
    now_ns = 40 * seconds(5)
    for query in FIG11_QUERIES:
        for _ in range(2):  # second pass hits the cache
            assert cached.instant(query, now_ns) == uncached.instant(query, now_ns)
        assert (
            cached.range_query(query, seconds(5), now_ns, seconds(15))
            == uncached.range_query(query, seconds(5), now_ns, seconds(15))
        )
    stats = cached.cache_stats()
    assert stats.hits > 0
    assert stats.misses == len(FIG11_QUERIES)


# ---------------------------------------------------------------------------
# Self-monitoring: the PMAG exports its own cache counters
# ---------------------------------------------------------------------------
def test_deployment_exports_query_cache_metrics():
    from repro.experiments.common import make_sgx_host
    from repro.teemon import TeemonConfig, deploy

    kernel, _driver = make_sgx_host(seed=3)
    deployment = deploy(kernel, TeemonConfig())
    session = deployment.session
    # Let a few scrape + accounting + analysis cycles run; the analyzer and
    # rule evaluator issue queries, so the cache counters move.
    kernel.clock.advance(seconds(60))
    for metric in (
        "pmag_query_cache_hits_total",
        "pmag_query_cache_misses_total",
        "pmag_query_cache_evictions_total",
        "pmag_query_cache_size",
    ):
        vector = session.query(metric)
        assert vector, f"{metric} not exported"
        assert vector[0][0].get("job") == "teemon_self"
    hits = session.query("pmag_query_cache_hits_total")[0][1]
    misses = session.query("pmag_query_cache_misses_total")[0][1]
    assert misses > 0
    assert hits > 0  # rule groups re-evaluate the same expressions
    deployment.shutdown()
