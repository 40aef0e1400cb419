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
from repro.pmag.blocks import BlockPolicy
from repro.pmag.model import Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.query.parser import parse_query
from repro.pmag.storage import build_storage_engine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.trace import Tracer

from tests.query_oracle import PerInstantEvaluator
from tests.test_perf_equivalence import (
    RANGE_QUERIES,
    _POLICY,
    _fill,
    _series_strategy,
)

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

_STORES = ("monolith", "sharded", "compacted", "compacted-sharded")


def _store(kind, values_by_series):
    """A filled store of ``kind``; compacted kinds fold everything older
    than the policy's horizon into rollup buckets first."""
    shards = 4 if kind.endswith("sharded") else 1
    compacted = kind.startswith("compacted")
    tsdb = _fill(
        build_storage_engine(
            shards, block_policy=_POLICY if compacted else None
        ),
        values_by_series,
    )
    if compacted and values_by_series:
        longest = max(len(values) for _p, values in values_by_series.values())
        tsdb.compact((longest + 2) * seconds(5))
    return tsdb


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
    st.sampled_from(_STORES),
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
    values_by_series, query, kind, time_ns, lookback_ns
):
    _assert_same(_store(kind, values_by_series), query, time_ns, lookback_ns)


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


@pytest.mark.parametrize("kind", _STORES)
def test_every_shape_matches_on_a_fixed_and_an_empty_store(kind):
    for values in (_FIXED, {}):
        tsdb = _store(kind, values)
        for query in RANGE_QUERIES + _REJECTED:
            for time_ns in _FIXED_TIMES:
                for lookback_ns in (seconds(12), seconds(300)):
                    _assert_same(tsdb, query, time_ns, lookback_ns)


def test_fixed_store_has_the_cases_it_is_there_for():
    engine = QueryEngine(_store("monolith", _FIXED))
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


# ---------------------------------------------------------------------------
# Instants read raw samples only, whatever the store has compacted
# ---------------------------------------------------------------------------
def test_instants_on_a_compacted_store_read_raw_samples_only():
    policy = BlockPolicy(
        block_range_ns=seconds(60),
        downsample_after_ns=seconds(60),
        resolution_ns=seconds(60),
    )
    tsdb = Tsdb(block_policy=policy)
    for step in range(1, 61):
        tsdb.append_sample("signal", step * seconds(5), float(step), job="j")
    now_ns = seconds(300)
    assert tsdb.compact(now_ns) > 0 and tsdb.has_rollups()
    engine = QueryEngine(tsdb)
    # Raw survivors are the samples of the last block only.
    survivors = [
        sample.value
        for series in tsdb.select([], 0, now_ns) for sample in series.samples
    ]
    assert 0 < len(survivors) < 60
    before = tsdb.storage_stats()["downsampled_reads_total"]
    # Bucket-aligned window (0..300 s at a 60 s resolution): a range
    # query at a coarse step serves it from rollups ⊕ raw and sees all
    # sixty samples; the instant sees the survivors alone.
    assert engine.instant("count_over_time(signal[5m])", now_ns) == [
        (Labels({"job": "j"}), float(len(survivors)))
    ]
    assert engine.instant("sum_over_time(signal[5m])", now_ns)[0][1] == sum(
        survivors
    )
    assert tsdb.storage_stats()["downsampled_reads_total"] == before
    ranged = engine.range_query(
        "count_over_time(signal[5m])", now_ns, now_ns, seconds(60)
    )
    assert ranged[0].samples[0].value == 60.0
    assert tsdb.storage_stats()["downsampled_reads_total"] == before + 1


# ---------------------------------------------------------------------------
# Traced instants: same spans, same modelled time
# ---------------------------------------------------------------------------
#: The spans of the scenario below as ``parent > name +start..+end
#: [attributes]`` (virtual ns since the scenario's clock), recorded at
#: commit c7a3a21 under the per-instant evaluator.
_TRACED_SPANS = """\
- > query.instant +0..+5700 [query='sum by (name) (rate(m[1m]))']
query.instant > query.parse +0..+2700 [plan_cache_hit=False, query='sum by (name) (rate(m[1m]))']
query.instant > query.eval +2700..+5700 [series=3]
- > query.instant +0..+3000 [query='sum by (name) (rate(m[1m]))']
query.instant > query.parse +0..+0 [plan_cache_hit=True, query='sum by (name) (rate(m[1m]))']
query.instant > query.eval +0..+3000 [series=3]
- > query.parse +0..+0 [plan_cache_hit=True, query='sum by (name) (rate(m[1m]))']
- > query.instant +0..+3000 [plan=True]
query.instant > query.eval +0..+3000 [series=3]
- > query.instant +0..+3100 [query='m']
query.instant > query.parse +0..+100 [plan_cache_hit=False, query='m']
query.instant > query.eval +100..+3100 [series=3]
- > query.instant +0..+1500 [query='1 + 2']
query.instant > query.parse +0..+500 [plan_cache_hit=False, query='1 + 2']
query.instant > query.eval +500..+1500 [series=1]
- > query.instant +0..+2400 [query='m{name="nope"}']
query.instant > query.parse +0..+1400 [plan_cache_hit=False, query='m{name="nope"}']
query.instant > query.eval +1400..+2400 [series=0]
- > query.instant +0..+1600 [query='sum(m)']
query.instant > query.parse +0..+600 [plan_cache_hit=False, query='sum(m)']
query.instant > query.eval +600..+1600 [series=1]
"""


def test_traced_instants_keep_their_spans_and_virtual_time():
    clock = VirtualClock()
    clock.advance(seconds(100))
    tracer = Tracer(clock, rng=DeterministicRng(7))
    tsdb = Tsdb()
    for step in range(1, 13):
        for name, scale in (("read", 1.0), ("write", 2.5), ("futex", 0.25)):
            tsdb.append_sample("m", step * seconds(5), step * scale, name=name)
    engine = QueryEngine(tsdb, tracer=tracer)
    now_ns = seconds(60)
    query = "sum by (name) (rate(m[1m]))"
    engine.instant(query, now_ns)                       # plan-cache miss
    engine.instant(query, now_ns)                       # hit
    engine.instant_plan(engine.plan(query), now_ns)     # parse span, then plan
    engine.instant("m", now_ns)                         # three series
    engine.instant("1 + 2", now_ns)                     # scalar: one entry
    engine.instant('m{name="nope"}', now_ns)            # empty
    assert engine.scalar("sum(m)", now_ns) == 45.0
    store = tracer.store
    lines = []
    for trace_id in store.trace_ids():
        spans = store.get(trace_id)
        names = {span.span_id: span.name for span in spans}
        for span in spans:
            attributes = ", ".join(
                f"{key}={value!r}"
                for key, value in sorted(span.attributes.items())
            )
            lines.append(
                f"{names.get(span.parent_id, '-')} > {span.name} "
                f"+{span.start_ns - seconds(100)}..+{span.end_ns - seconds(100)} "
                f"[{attributes}]\n"
            )
    assert "".join(lines) == _TRACED_SPANS
