"""Query language tests: lexer, parser, engine."""

import math

import pytest

from repro.errors import QueryError
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.query.lexer import TokenKind, duration_to_ns, tokenize
from repro.pmag.query.nodes import (
    Aggregation,
    BinaryOp,
    FunctionCall,
    NumberLiteral,
    RangeSelector,
    VectorSelector,
)
from repro.pmag.query.parser import parse_query
from repro.pmag.storage import build_storage_engine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
def test_duration_literals():
    assert duration_to_ns("5m") == 300 * 10**9
    assert duration_to_ns("30s") == 30 * 10**9
    assert duration_to_ns("1h") == 3600 * 10**9
    assert duration_to_ns("100ms") == 10**8
    assert duration_to_ns("2d") == 2 * 86400 * 10**9


def test_duration_bad():
    with pytest.raises(QueryError):
        duration_to_ns("5x")
    with pytest.raises(QueryError):
        duration_to_ns("m")


def test_tokenize_selector():
    tokens = tokenize('metric{name="read",pid!="3"}[5m]')
    kinds = [t.kind for t in tokens]
    assert TokenKind.IDENT in kinds
    assert TokenKind.OP_EQ in kinds
    assert TokenKind.OP_NE in kinds
    assert TokenKind.DURATION in kinds
    assert kinds[-1] is TokenKind.EOF


def test_tokenize_string_escapes():
    tokens = tokenize('m{a="x\\"y"}')
    string = [t for t in tokens if t.kind is TokenKind.STRING][0]
    assert string.text == 'x"y'


def test_tokenize_errors():
    with pytest.raises(QueryError):
        tokenize('m{a="unterminated}')
    with pytest.raises(QueryError):
        tokenize("m[5m")
    with pytest.raises(QueryError):
        tokenize("a ! b")
    with pytest.raises(QueryError):
        tokenize("m @ x")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def test_parse_number():
    node = parse_query("42.5")
    assert isinstance(node, NumberLiteral)
    assert node.value == 42.5


def test_parse_selector_with_matchers():
    node = parse_query('up{job="sme",name=~"clo.*"}')
    assert isinstance(node, VectorSelector)
    assert node.metric_name == "up"
    assert len(node.matchers) == 2


def test_parse_range_function():
    node = parse_query("rate(x[5m])")
    assert isinstance(node, FunctionCall)
    assert node.name == "rate"
    assert isinstance(node.args[0], RangeSelector)
    assert node.args[0].range_ns == 300 * 10**9


def test_parse_aggregation_by():
    node = parse_query("sum by (name, job) (rate(x[1m]))")
    assert isinstance(node, Aggregation)
    assert node.op == "sum"
    assert node.grouping == ("name", "job")
    assert not node.without


def test_parse_aggregation_trailing_by():
    node = parse_query("avg (x) by (job)")
    assert isinstance(node, Aggregation)
    assert node.grouping == ("job",)


def test_parse_aggregation_without():
    node = parse_query("max without (instance) (x)")
    assert node.without


def test_parse_binary_precedence():
    node = parse_query("1 + 2 * 3")
    assert isinstance(node, BinaryOp)
    assert node.op == "+"
    assert isinstance(node.right, BinaryOp)
    assert node.right.op == "*"


def test_parse_parentheses_override():
    node = parse_query("(1 + 2) * 3")
    assert node.op == "*"


def test_parse_unary_minus():
    node = parse_query("-5")
    assert isinstance(node, BinaryOp) and node.op == "-"


def test_parse_unknown_function_rejected():
    with pytest.raises(QueryError, match="unknown function"):
        parse_query("frobnicate(x)")


def test_parse_empty_rejected():
    with pytest.raises(QueryError):
        parse_query("   ")


def test_parse_trailing_garbage_rejected():
    with pytest.raises(QueryError):
        parse_query("up up")


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
@pytest.fixture
def populated():
    tsdb = Tsdb()
    # A counter advancing 100/s for two series, sampled every 5 s for 5 min.
    for step in range(60):
        t = step * seconds(5)
        tsdb.append_sample("reqs_total", t or 1, step * 500.0, name="read", job="a")
        tsdb.append_sample("reqs_total", t or 1, step * 1000.0, name="write", job="a")
        tsdb.append_sample("mem_free", t or 1, 1000.0 - step, job="a")
    return QueryEngine(tsdb), 59 * seconds(5)


def test_instant_selector_latest_value(populated):
    engine, now = populated
    vector = engine.instant("mem_free", now)
    assert len(vector) == 1
    assert vector[0][1] == 1000.0 - 59


def test_instant_selector_respects_lookback(populated):
    engine, now = populated
    assert engine.instant("mem_free", now + seconds(301)) == []


def test_scalar_literal(populated):
    engine, now = populated
    assert engine.scalar("2 + 3 * 4", now) == 14.0


def test_rate_recovers_slope(populated):
    engine, now = populated
    vector = engine.instant('rate(reqs_total{name="read"}[1m])', now)
    assert len(vector) == 1
    assert vector[0][1] == pytest.approx(100.0)


def test_rate_handles_counter_reset():
    tsdb = Tsdb()
    values = [0, 100, 200, 50, 150]  # reset after 200
    for index, value in enumerate(values):
        tsdb.append_sample("c", (index + 1) * seconds(1), float(value))
    engine = QueryEngine(tsdb)
    vector = engine.instant("increase(c[10s])", 5 * seconds(1))
    # 0->100->200 (200) + reset to 50 (50) + 50->150 (100) = 350
    assert vector[0][1] == pytest.approx(350.0)


def test_irate_uses_last_two_samples(populated):
    engine, now = populated
    vector = engine.instant('irate(reqs_total{name="write"}[1m])', now)
    assert vector[0][1] == pytest.approx(200.0)


def test_over_time_functions(populated):
    engine, now = populated
    assert engine.instant("min_over_time(mem_free[30s])", now)[0][1] == 1000.0 - 59
    assert engine.instant("max_over_time(mem_free[30s])", now)[0][1] == 1000.0 - 53
    count = engine.instant("count_over_time(mem_free[30s])", now)[0][1]
    assert count == 7.0


def test_quantile_over_time(populated):
    engine, now = populated
    vector = engine.instant("quantile_over_time(0.5, mem_free[5m])", now)
    assert 940 <= vector[0][1] <= 975


def test_aggregation_sum_by(populated):
    engine, now = populated
    vector = engine.instant("sum by (name) (rate(reqs_total[1m]))", now)
    values = {labels.get("name"): value for labels, value in vector}
    assert values["read"] == pytest.approx(100.0)
    assert values["write"] == pytest.approx(200.0)


def test_aggregation_without(populated):
    engine, now = populated
    vector = engine.instant("sum without (name) (rate(reqs_total[1m]))", now)
    assert len(vector) == 1
    assert vector[0][1] == pytest.approx(300.0)


def test_aggregation_all(populated):
    engine, now = populated
    assert engine.instant("count(reqs_total)", now)[0][1] == 2.0
    assert engine.instant("avg(rate(reqs_total[1m]))", now)[0][1] == pytest.approx(150.0)
    assert engine.instant("min(rate(reqs_total[1m]))", now)[0][1] == pytest.approx(100.0)
    assert engine.instant("max(rate(reqs_total[1m]))", now)[0][1] == pytest.approx(200.0)


def test_vector_scalar_arithmetic(populated):
    engine, now = populated
    vector = engine.instant("mem_free * 2", now)
    assert vector[0][1] == (1000.0 - 59) * 2
    vector = engine.instant("1 - up", now)  # missing metric: empty vector
    assert vector == []


def test_vector_vector_matching(populated):
    engine, now = populated
    vector = engine.instant(
        "rate(reqs_total[1m]) / rate(reqs_total[1m])", now
    )
    assert all(value == pytest.approx(1.0) for _, value in vector)
    assert len(vector) == 2


def test_division_by_zero_is_nan(populated):
    engine, now = populated
    value = engine.scalar("1 / 0", now)
    assert math.isnan(value)


def test_clamp_and_abs(populated):
    engine, now = populated
    assert engine.scalar("abs(0 - 5)", now) == 5.0
    assert engine.instant("clamp_max(mem_free, 10)", now)[0][1] == 10.0
    assert engine.instant("clamp_min(mem_free, 2000)", now)[0][1] == 2000.0


def test_range_query_produces_series(populated):
    engine, now = populated
    series = engine.range_query(
        'rate(reqs_total{name="read"}[1m])', now - seconds(60), now, seconds(15)
    )
    assert len(series) == 1
    assert len(series[0].samples) == 5
    assert all(s.value == pytest.approx(100.0) for s in series[0].samples)


def test_range_query_validation(populated):
    engine, now = populated
    with pytest.raises(QueryError):
        engine.range_query("x", 100, 0, 10)
    with pytest.raises(QueryError):
        engine.range_query("x", 0, 100, 0)


def test_bare_range_selector_rejected(populated):
    engine, now = populated
    with pytest.raises(QueryError):
        engine.instant("reqs_total[5m]", now)


def test_rate_insufficient_samples_drops_series():
    tsdb = Tsdb()
    tsdb.append_sample("single", seconds(1), 1.0)
    engine = QueryEngine(tsdb)
    assert engine.instant("rate(single[1m])", seconds(2)) == []


def test_scalar_requires_single_value(populated):
    engine, now = populated
    with pytest.raises(QueryError):
        engine.scalar("reqs_total", now)  # two series


# ---------------------------------------------------------------------------
# Counter functions: Prometheus' closed form, hand-computed
# ---------------------------------------------------------------------------
ENGINES = pytest.mark.parametrize(
    "build", [Tsdb, lambda: build_storage_engine(4)],
    ids=["monolith", "sharded4"],
)


def _counter_engine(build, values):
    """``c`` scraped once a second from t = 1 s."""
    tsdb = build()
    for index, value in enumerate(values):
        tsdb.append_sample("c", (index + 1) * seconds(1), float(value))
    return QueryEngine(tsdb)


def _only(engine, query, at_s):
    vector = engine.instant(query, at_s * seconds(1))
    assert len(vector) == 1
    return vector[0][1]


@ENGINES
def test_increase_adds_the_value_before_a_reset_inside_the_window(build):
    engine = _counter_engine(build, [5, 10, 2, 8])
    # 8 - 5, plus 10 reached before the reset to 2.
    assert _only(engine, "increase(c[10s])", 4) == 13.0
    assert _only(engine, "rate(c[10s])", 4) == 13.0 * 10**9 / (3 * 10**9)


@ENGINES
def test_reset_on_a_window_edge(build):
    engine = _counter_engine(build, [5, 10, 2, 8])
    # The reset sample opens the window [3 s, 4 s]: nothing to add.
    assert _only(engine, "increase(c[1s])", 4) == 6.0
    # The reset sample closes the window [1 s, 3 s]: 2 - 5 + 10.
    assert _only(engine, "increase(c[2s])", 3) == 7.0


@ENGINES
def test_nan_strictly_inside_a_window_gives_a_finite_value(build):
    engine = _counter_engine(build, [1, 2, float("nan"), 4, 6])
    assert _only(engine, "increase(c[10s])", 5) == 5.0
    assert _only(engine, "rate(c[10s])", 5) == 5.0 * 10**9 / (4 * 10**9)


@ENGINES
@pytest.mark.parametrize(
    "values, increase",
    [([10, float("nan"), 2], -8.0), ([5, 10, float("nan"), 2, 8], 3.0)],
    ids=["negative", "low"],
)
def test_a_reset_right_after_a_nan_is_missed(build, values, increase):
    # Both comparisons that touch the NaN are false, so the drop to 2 is
    # no reset: last - first alone, as Prometheus' extrapolatedRate gives.
    engine = _counter_engine(build, values)
    at_s = len(values)
    assert _only(engine, "increase(c[10s])", at_s) == increase
    assert _only(engine, "rate(c[10s])", at_s) == (
        increase * 10**9 / ((at_s - 1) * 10**9)
    )


@ENGINES
@pytest.mark.parametrize(
    "values", [[float("nan"), 2, 4], [1, 2, float("nan")]],
    ids=["first", "last"],
)
def test_nan_at_a_window_end_gives_nan(build, values):
    engine = _counter_engine(build, values)
    assert math.isnan(_only(engine, "increase(c[10s])", 3))
    assert math.isnan(_only(engine, "rate(c[10s])", 3))


@ENGINES
def test_irate_across_a_reset_counts_from_zero(build):
    engine = _counter_engine(build, [5, 10, 2])
    assert _only(engine, "irate(c[10s])", 3) == 2.0


def test_histogram_quantile_skips_an_unparsable_le():
    tsdb = Tsdb()
    for le, count in (("0.5", 10.0), ("+Inf", 20.0), ("bogus", 15.0)):
        tsdb.append_sample("h_bucket", seconds(1), count, le=le)
    engine = QueryEngine(tsdb)
    vector = engine.instant("histogram_quantile(0.5, h_bucket)", seconds(1))
    # Rank 10 falls in the 0.5 bucket; "bogus" is dropped as Prometheus does.
    assert vector == [(Labels({}), 0.5)]
