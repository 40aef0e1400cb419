"""Instants run on the one-step grid: differential against the oracle.

``QueryEngine.instant``/``instant_plan`` evaluate the step grid with
``start == end == t``.  The per-instant evaluator they used to run lives
in ``tests/query_oracle.py``; here both answer the same plan on the same
store and must agree entry for entry, in order, float bit for float bit
— and raise the same ``QueryError`` when either raises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import QueryError
from repro.pmag.query.engine import QueryEngine
from repro.pmag.query.parser import parse_query
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds

from tests.query_oracle import PerInstantEvaluator
from tests.test_perf_equivalence import (
    RANGE_QUERIES,
    _fill,
    _series_strategy,
)
from tests.test_storage_engine import partitioned

#: Shapes that raise: both evaluators must refuse them the same way,
#: with or without data underneath.
_REJECTED = (
    "sum(1)",
    "topk(0, ebpf_syscalls_total)",
    "rate(ebpf_syscalls_total)",
    "ebpf_syscalls_total[1m]",
    "clamp_min(ebpf_syscalls_total, ebpf_syscalls_total)",
    "histogram_quantile(2, ebpf_latency_bucket)",
    "quantile_over_time(1.5, ebpf_syscalls_total[1m])",
    "abs(ebpf_syscalls_total, ebpf_syscalls_total)",
    "rate(ebpf_syscalls_total[1m], 2)",
    "sum(ebpf_syscalls_total[1m])",
    "ebpf_syscalls_total + ebpf_syscalls_total[1m]",
)

def _outcome(evaluate):
    """``repr`` of the result (every float bit, NaN == NaN), or the
    error's type and message."""
    try:
        return repr(evaluate())
    except QueryError as error:
        return type(error).__name__, str(error)


def _assert_same(tsdb, query, time_ns, lookback_ns):
    plan = parse_query(query)
    engine = QueryEngine(tsdb, lookback_ns=lookback_ns)
    oracle = PerInstantEvaluator(tsdb, lookback_ns=lookback_ns)
    assert _outcome(lambda: engine.instant_plan(plan, time_ns)) == _outcome(
        lambda: oracle.instant_plan(plan, time_ns)
    ), (query, time_ns)


@given(
    st.one_of(st.just({}), _series_strategy),
    st.sampled_from(RANGE_QUERIES + _REJECTED),
    # Before the first sample (5 s), between samples (off the 5 s grid,
    # down to the nanosecond), past the last one (at most 40 slots =
    # 200 s) and past it by more than either lookback; small times clamp
    # the ``offset 30s`` / ``offset 1m`` shapes at zero.
    st.one_of(
        st.integers(0, seconds(60)),
        st.integers(0, 520).map(seconds),
        st.integers(0, seconds(520)),
    ),
    st.sampled_from((seconds(12), seconds(300))),
)
@settings(max_examples=400, deadline=None)
def test_instant_matches_the_per_instant_oracle(
    values_by_series, query, time_ns, lookback_ns
):
    _assert_same(_fill(Tsdb(), values_by_series), query, time_ns, lookback_ns)


#: A fixed store with what the random one only sometimes has: ``topk``
#: / ``bottomk`` ties (equal values on several series), a histogram
#: group without its ``+Inf`` bucket (``futex`` has idx 0 and 1 only)
#: next to complete ones, a gap longer than the short lookback, and
#: series on different scrape phases.
_FIXED = {
    ("read", 0): (0, [1.0, 2.0, 4.0, 4.0, 0.5, 7.0, 7.0, 9.0]),
    ("read", 1): (1, [1.0, 2.0, 4.0, 4.0, 0.5, 7.0, 7.0, 9.0]),
    ("read", 2): (0, [3.0, 3.0, 4.0, 4.0, 8.5, 9.0, 9.0, 9.0]),
    ("write", 0): (2, [0.1, 0.2, None, None, None, None, 0.3, 0.7]),
    ("write", 2): (0, [0.1, 0.2, 0.3, 0.7, 1e-6, 1e6, 1e6, 1e6]),
    ("futex", 0): (0, [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]),
    ("futex", 1): (1, [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0]),
}
_FIXED_TIMES = tuple(seconds(s) for s in (0, 4, 5, 17, 30, 41, 42, 60, 360)) + (
    seconds(40) + 1, seconds(45) - 1,
)


@pytest.mark.parametrize("kind", ("monolith", "sharded"))
def test_every_shape_matches_on_a_fixed_and_an_empty_store(kind):
    """``sharded``: the same store writing through a 4-partition WAL."""
    for values in (_FIXED, {}):
        tsdb = _fill(partitioned(4) if kind == "sharded" else Tsdb(), values)
        for query in RANGE_QUERIES + _REJECTED:
            for time_ns in _FIXED_TIMES:
                for lookback_ns in (seconds(12), seconds(300)):
                    _assert_same(tsdb, query, time_ns, lookback_ns)


def test_fixed_store_has_the_cases_it_is_there_for():
    engine = QueryEngine(_fill(Tsdb(), _FIXED))
    # Three series tie at 9.0 for the last two places: topk keeps them
    # in selection order.
    tied = engine.instant("topk(4, ebpf_syscalls_total)", seconds(42))
    assert [(labels.get("name"), labels.get("idx"), value)
            for labels, value in tied[2:]] == [
        ("read", "0", 9.0), ("read", "1", 9.0),
    ]
    # futex has no +Inf bucket and drops out; read and write stay.
    groups = engine.instant(
        "histogram_quantile(0.5, ebpf_latency_bucket)", seconds(42)
    )
    assert [labels.get("name") for labels, _v in groups] == ["read", "write"]
    assert engine.instant("absent(ebpf_syscalls_total)", seconds(42)) == []
    assert engine.instant("1 + 2 * 3", 0)[0][1] == 7.0
    assert QueryEngine(Tsdb()).instant("absent(ebpf_syscalls_total)", 0) != []
