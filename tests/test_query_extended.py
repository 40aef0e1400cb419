"""Tests for the extended query surface: comparisons, topk/bottomk,
histogram_quantile, absent, offset."""

import pytest

from repro.errors import QueryError
from repro.pmag.query.engine import MAX_GRID_STEPS, QueryEngine
from repro.pmag.query.parser import parse_query
from repro.pmag.query.nodes import Aggregation, Comparison, VectorSelector
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds


@pytest.fixture
def engine():
    tsdb = Tsdb()
    for step in range(40):
        t = (step + 1) * seconds(15)
        tsdb.append_sample("qps", t, 100.0, name="read")
        tsdb.append_sample("qps", t, 300.0, name="write")
        tsdb.append_sample("qps", t, 50.0, name="futex")
        tsdb.append_sample("ramp", t, float(step))
    # A histogram: latencies mostly under 0.1, tail to 1.0.
    buckets = ((0.05, 40.0), (0.1, 90.0), (0.5, 99.0), ("+Inf", 100.0))
    for le, cumulative in buckets:
        tsdb.append_sample("lat_bucket", 40 * seconds(15), float(cumulative),
                           le=str(le))
    return QueryEngine(tsdb)


NOW = 40 * seconds(15)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
def test_parse_comparison():
    node = parse_query("qps > 100")
    assert isinstance(node, Comparison)
    assert node.op == ">"


def test_parse_topk_parameter():
    node = parse_query("topk(3, qps)")
    assert isinstance(node, Aggregation)
    assert node.op == "topk"
    assert node.parameter == 3.0


def test_parse_offset():
    node = parse_query("qps offset 5m")
    assert isinstance(node, VectorSelector)
    assert node.offset_ns == 300 * 10**9


def test_parse_offset_on_range_selector():
    node = parse_query("rate(qps[1m] offset 2m)")
    selector = node.args[0].selector
    assert selector.offset_ns == 120 * 10**9


def test_parse_comparison_inside_aggregation():
    node = parse_query("count(qps > 100)")
    assert isinstance(node, Aggregation)
    assert isinstance(node.expr, Comparison)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
def test_vector_scalar_comparison_filters(engine):
    vector = engine.instant("qps > 100", NOW)
    assert len(vector) == 1
    assert vector[0][0].get("name") == "write"
    vector = engine.instant("qps >= 100", NOW)
    assert len(vector) == 2


def test_scalar_scalar_comparison_is_bool(engine):
    assert engine.scalar("2 > 1", NOW) == 1.0
    assert engine.scalar("1 > 2", NOW) == 0.0
    assert engine.scalar("3 == 3", NOW) == 1.0
    assert engine.scalar("3 != 3", NOW) == 0.0


def test_vector_vector_comparison(engine):
    # qps != qps is empty; qps == qps keeps all three series.
    assert engine.instant("qps != qps", NOW) == []
    assert len(engine.instant("qps == qps", NOW)) == 3


def test_count_over_comparison(engine):
    assert engine.instant("count(qps > 60)", NOW)[0][1] == 2.0


def test_topk_bottomk(engine):
    top = engine.instant("topk(2, qps)", NOW)
    assert [pair[1] for pair in top] == [300.0, 100.0]
    bottom = engine.instant("bottomk(1, qps)", NOW)
    assert bottom[0][1] == 50.0
    assert bottom[0][0].get("name") == "futex"


def test_topk_invalid_k(engine):
    with pytest.raises(QueryError):
        engine.instant("topk(0, qps)", NOW)


def test_histogram_quantile(engine):
    median = engine.instant("histogram_quantile(0.5, lat_bucket)", NOW)
    assert len(median) == 1
    # rank 50 falls in the (0.05, 0.1] bucket: 40 + 10/50 of the way.
    assert median[0][1] == pytest.approx(0.05 + (10 / 50) * 0.05)
    p99 = engine.instant("histogram_quantile(0.99, lat_bucket)", NOW)
    assert 0.1 < p99[0][1] <= 0.5


def test_histogram_quantile_inf_bucket_clamps(engine):
    p999 = engine.instant("histogram_quantile(0.999, lat_bucket)", NOW)
    assert p999[0][1] == 0.5  # falls in +Inf bucket: clamp to last bound


def test_histogram_quantile_validation(engine):
    with pytest.raises(QueryError):
        engine.instant("histogram_quantile(1.5, lat_bucket)", NOW)


def test_absent(engine):
    assert engine.instant("absent(qps)", NOW) == []
    missing = engine.instant("absent(nonexistent_metric)", NOW)
    assert len(missing) == 1 and missing[0][1] == 1.0


def test_offset_shifts_evaluation_time(engine):
    now_value = engine.instant("ramp", NOW)[0][1]
    past_value = engine.instant("ramp offset 5m", NOW)[0][1]
    assert now_value == 39.0
    assert past_value == now_value - 20  # 5 min = 20 steps of 15 s


def test_offset_with_rate(engine):
    current = engine.instant("rate(ramp[1m])", NOW)[0][1]
    shifted = engine.instant("rate(ramp[1m] offset 3m)", NOW)[0][1]
    assert current == pytest.approx(shifted)  # constant slope


def test_comparison_in_threshold_style_query(engine):
    # The alerting idiom: series breaking a bound.
    breaking = engine.instant('qps{name=~"read|write"} > 200', NOW)
    assert len(breaking) == 1
    assert breaking[0][0].get("name") == "write"


# ---------------------------------------------------------------------------
# Validation that must not wait for data
# ---------------------------------------------------------------------------
def test_quantile_over_time_rejects_q_before_it_meets_data(engine):
    query = "quantile_over_time(1.5, qps[5m])"
    # An empty store, a populated one, and a populated one whose every
    # window is still empty (t before the first sample): same refusal.
    for target, time_ns in (
        (QueryEngine(Tsdb()), NOW), (engine, NOW), (engine, 0),
    ):
        with pytest.raises(QueryError, match="q out of range"):
            target.instant(query, time_ns)
        with pytest.raises(QueryError, match="q out of range"):
            target.range_query(query, time_ns, time_ns + seconds(60),
                               seconds(15))
    for edge in ("0", "1"):
        assert engine.instant(f"quantile_over_time({edge}, ramp[1m])", NOW)


def test_range_query_rejects_an_oversized_grid_before_selecting(engine):
    selects = []
    tsdb = engine._tsdb  # noqa: SLF001 - counting selects
    select_arrays = tsdb.select_arrays
    tsdb.select_arrays = lambda *args: (
        selects.append(args), select_arrays(*args)
    )[1]
    # 11,000 steps is the limit; one more is refused, unselected.
    at_limit = (MAX_GRID_STEPS - 1) * seconds(1)
    assert engine.range_query("ramp", 0, at_limit, seconds(1))
    assert len(selects) == 1
    with pytest.raises(QueryError, match="11001 steps, limit is 11000"):
        engine.range_query("ramp", 0, at_limit + seconds(1), seconds(1))
    with pytest.raises(QueryError, match="limit is 11000"):
        engine.range_query("ramp", 0, seconds(10**7), seconds(1))
    assert len(selects) == 1
