"""Equivalence properties for the query and storage hot paths.

Every optimized path must be sample-for-sample identical to the seed
semantics it replaced:

* step-grid range evaluation (``range_query``) vs per-step evaluation
  (``range_query_per_step``, the seed algorithm, kept in
  ``tests/query_oracle.py``) — on a monolith, through a sharded engine,
  and over a compacted store where aligned windows are served from
  rollups;
* indexed chunk windows (``window``/``window_arrays``) vs a linear decode
  of ``chunk.samples()`` (the seed algorithm, re-implemented here);
* column-form range functions vs the Sample-form originals;
* the closed-form counter increase vs the fold of reset-corrected
  deltas it replaced, on integer-valued counters where both are exact;
* ``last_sample`` vs ``window(last, last)``;
* the batched chunk codec vs itself (round trip), including the empty and
  single-sample chunks.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import QueryError
from repro.pmag.blocks import BlockPolicy, aggregate_arrays
from repro.pmag.chunks import CHUNK_SIZE, Chunk, ChunkedSeries
from repro.pmag.model import METRIC_NAME_LABEL, Sample
from repro.pmag.query import ops
from repro.pmag.query.engine import QueryEngine
from repro.pmag.query.functions import (
    COLUMN_RANGE_FUNCTIONS,
    ROLLUP_COMPOSERS,
    window_bounds,
)
from repro.pmag.storage import build_storage_engine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds
from tests.query_oracle import (
    RANGE_FUNCTIONS,
    PerInstantEvaluator,
    range_query_per_step,
)

# ---------------------------------------------------------------------------
# Step-grid vs per-step range evaluation
# ---------------------------------------------------------------------------

#: The dashboard/fig11 query population plus every node type the grid
#: evaluator has a column form or a per-step fallback for.
RANGE_QUERIES = (
    "ebpf_syscalls_total",
    "rate(ebpf_syscalls_total[1m])",
    "rate(ebpf_syscalls_total[5m])",
    "irate(ebpf_syscalls_total[1m])",
    "increase(ebpf_syscalls_total[2m])",
    "delta(ebpf_syscalls_total[1m])",
    "avg_over_time(ebpf_syscalls_total[1m])",
    "max_over_time(ebpf_syscalls_total[1m])",
    "min_over_time(ebpf_syscalls_total[20s])",
    "sum_over_time(ebpf_syscalls_total[1m])",
    "count_over_time(ebpf_syscalls_total[1m])",
    "sum by (name) (rate(ebpf_syscalls_total[1m]))",
    "sum(rate(ebpf_syscalls_total[1m]))",
    'ebpf_syscalls_total{name="read"}',
    "ebpf_syscalls_total offset 30s",
    "rate(ebpf_syscalls_total[1m]) * 2 + 1",
    "rate(ebpf_syscalls_total[1m]) > 0.5",
    "quantile_over_time(0.9, ebpf_syscalls_total[2m])",
    # Aggregations beyond sum, and `without`.
    "avg by (name) (ebpf_syscalls_total)",
    "min(ebpf_syscalls_total)",
    "max by (idx) (rate(ebpf_syscalls_total[1m]))",
    "count(ebpf_syscalls_total)",
    "count by (name) (ebpf_syscalls_total > 1000)",
    "sum without (idx) (rate(ebpf_syscalls_total[1m]))",
    "avg without (name, job) (avg_over_time(ebpf_syscalls_total[1m]))",
    "sum(avg by (name, idx) (ebpf_syscalls_total))",
    # topk/bottomk order by value per step; their consumers must see
    # that order (float sums are order-sensitive).
    "topk(2, rate(ebpf_syscalls_total[1m]))",
    "bottomk(2, ebpf_syscalls_total)",
    "sum(topk(3, ebpf_syscalls_total))",
    "avg by (name) (bottomk(4, rate(ebpf_syscalls_total[1m])))",
    "topk(1, ebpf_syscalls_total) * 2 > 10",
    "abs(topk(2, delta(ebpf_syscalls_total[1m])))",
    # Vector/vector arithmetic and comparison.
    "rate(ebpf_syscalls_total[1m]) / rate(ebpf_syscalls_total[5m])",
    "ebpf_syscalls_total - ebpf_syscalls_total offset 30s",
    "ebpf_syscalls_total > ebpf_syscalls_total offset 30s",
    "max_over_time(ebpf_syscalls_total[1m]) == ebpf_syscalls_total",
    # Scalars on the left, and scalar-only expressions.
    "100 - ebpf_syscalls_total",
    "0.5 < rate(ebpf_syscalls_total[1m])",
    "1 + 2 * 3",
    "2 > 1",
    # Instant functions.
    "abs(delta(ebpf_syscalls_total[1m]))",
    "clamp_min(ebpf_syscalls_total, 100)",
    "clamp_max(rate(ebpf_syscalls_total[1m]), 5)",
    "absent(ebpf_syscalls_total)",
    'absent(ebpf_syscalls_total{name="nope"})',
    'absent(rate(ebpf_syscalls_total{name="read"}[30s]))',
    "histogram_quantile(0.9, rate(ebpf_latency_bucket[1m]))",
    "histogram_quantile(0.5, sum by (le) (ebpf_latency_bucket))",
    "histogram_quantile(0.99, ebpf_latency_bucket) > 0",
    # Offset inside a range selector.
    "rate(ebpf_syscalls_total[1m] offset 30s)",
    "avg_over_time(ebpf_syscalls_total[2m] offset 1m)",
)

_LE = ("0.1", "1", "+Inf")


def _fill(engine, values_by_series):
    """Ingest ``{(name, idx): (phase_s, [value or None, ...])}``: one
    sample per 5 s slot (None = missed scrape), each series on its own
    schedule phase.  Series 0/1 of every name double as histogram buckets."""
    for (name, idx), (phase, values) in values_by_series.items():
        for step, value in enumerate(values):
            if value is None:
                continue
            time_ns = (step + 1) * seconds(5) + phase * seconds(1)
            engine.append_sample(
                "ebpf_syscalls_total", time_ns, value,
                name=name, idx=str(idx), job="ebpf",
            )
            engine.append_sample(
                "ebpf_latency_bucket", time_ns, value,
                name=name, le=_LE[idx], job="ebpf",
            )
    return engine


# Values with gaps: a cell can be absent mid-grid once the gap outlasts
# the window (or the lookback, drawn short below).  The sampled values
# make float addition association-sensitive, so a sum accumulated in
# another order shows up as a different bit pattern.
_series_strategy = st.dictionaries(
    st.tuples(st.sampled_from(("read", "write", "futex")), st.integers(0, 2)),
    st.tuples(
        st.integers(0, 2),
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from((0.1, 0.2, 0.3, 0.7, 1e-6, 1e6)),
                st.floats(0, 1e6, allow_nan=False),
            ),
            min_size=2, max_size=40,
        ),
    ),
    min_size=1, max_size=6,
)

#: (start lag in seconds, step in seconds): start before the first
#: sample, steps finer than the 5 s scrape interval, coarse steps.
_grid_strategy = st.one_of(
    st.tuples(st.integers(0, 50), st.sampled_from((5, 10, 15, 40))),
    st.tuples(st.integers(0, 50), st.sampled_from((1, 2, 3))),
    st.tuples(st.integers(100, 400), st.sampled_from((7, 15, 30, 60))),
)

_lookback_strategy = st.sampled_from((seconds(12), seconds(300)))


def _bits(result):
    """Exact comparison key: ``repr`` round-trips every float bit for bit,
    tells 0.0 from -0.0, and (unlike ``==``) equates a NaN with itself —
    ``rate / rate`` yields NaN on flat counters."""
    return repr(result)


def _grid(values_by_series, lag_s, step_s):
    longest = max(len(values) for _phase, values in values_by_series.values())
    end_ns = (longest + 2) * seconds(5)
    return max(0, end_ns - seconds(lag_s)), end_ns, seconds(step_s)


@given(_series_strategy, st.sampled_from(RANGE_QUERIES), _grid_strategy,
       _lookback_strategy)
@settings(max_examples=300, deadline=None)
def test_bulk_range_query_matches_per_step(values_by_series, query, grid, lookback):
    """range_query == range_query_per_step, sample for sample, bit for bit."""
    tsdb = _fill(Tsdb(), values_by_series)
    engine = QueryEngine(tsdb, lookback_ns=lookback)
    window = _grid(values_by_series, *grid)
    assert _bits(engine.range_query(query, *window)) == _bits(
        range_query_per_step(tsdb, query, *window, lookback_ns=lookback)
    )


@given(_series_strategy, st.sampled_from(RANGE_QUERIES), _grid_strategy,
       _lookback_strategy)
@settings(max_examples=150, deadline=None)
def test_bulk_range_query_matches_per_step_sharded(
    values_by_series, query, grid, lookback
):
    """The same panel through a 4-shard engine."""
    tsdb = _fill(build_storage_engine(4), values_by_series)
    engine = QueryEngine(tsdb, lookback_ns=lookback)
    window = _grid(values_by_series, *grid)
    assert _bits(engine.range_query(query, *window)) == _bits(
        range_query_per_step(tsdb, query, *window, lookback_ns=lookback)
    )


def test_bulk_range_query_matches_on_dense_series():
    """The acceptance shape: many steps across a multi-chunk series."""
    tsdb = Tsdb()
    for step in range(1000):
        tsdb.append_sample(
            "bench_counter", (step + 1) * seconds(5),
            float(step % 97), job="bench",
        )
    engine = QueryEngine(tsdb)
    end_ns = 1000 * seconds(5)
    for query in ("rate(bench_counter[5m])", "bench_counter",
                  "sum(irate(bench_counter[1m]))"):
        bulk = engine.range_query(query, seconds(5), end_ns, seconds(15))
        per_step = range_query_per_step(
            tsdb, query, seconds(5), end_ns, seconds(15)
        )
        assert bulk == per_step


# ---------------------------------------------------------------------------
# Rollup-served windows vs a per-step rollup oracle
# ---------------------------------------------------------------------------
_POLICY = BlockPolicy(
    block_range_ns=seconds(40),
    downsample_after_ns=seconds(40),
    resolution_ns=seconds(20),
)


class _RollupOracle(PerInstantEvaluator):
    """``range_query_per_step`` extended with the downsampled-read rule.

    Per step and per composable ``*_over_time`` call: when the store has
    rollups, the step is at least their resolution and the window is
    bucket-aligned, the value is rollup-aggregate ⊕ raw-aggregate per
    series (one counted downsampled read); otherwise the raw samples.
    """

    def __init__(self, tsdb, step_ns, **kwargs):
        super().__init__(tsdb, **kwargs)
        resolution = tsdb.downsample_resolution_ns
        self.resolution = (
            resolution
            if resolution and step_ns >= resolution and tsdb.has_rollups()
            else None
        )
        self.downsampled_reads = 0

    def _eval_function(self, call, time_ns):
        if self.resolution is None or call.name not in ROLLUP_COMPOSERS:
            return super()._eval_function(call, time_ns)
        _quantile, range_selector = ops.range_call(call)
        selector = range_selector.selector
        low, high = selector.window(time_ns, range_selector.range_ns)
        if low % self.resolution or high % self.resolution:
            return super()._eval_function(call, time_ns)
        self.downsampled_reads += 1
        matchers = selector.tsdb_matchers()
        aggregates = {
            labels: aggregate_arrays(times, values, low, high)
            for labels, times, values
            in self._tsdb.select_arrays(matchers, low, high)
        }
        for labels, rollup in self._tsdb.select_rollups(matchers, low, high):
            aggregates[labels] = rollup.window_aggregate(low, high).merge(
                aggregates.get(labels)
            )
        compose = ROLLUP_COMPOSERS[call.name]
        return [
            (labels.without(METRIC_NAME_LABEL), compose(aggregate))
            for labels, aggregate
            in sorted(aggregates.items(), key=lambda kv: kv[0].items())
            if aggregate.count
        ]


@given(
    _series_strategy,
    st.sampled_from(RANGE_QUERIES),
    st.sampled_from((1, 4)),                # shards
    st.sampled_from((0, 20, 40, 100)),      # start, seconds
    st.sampled_from((0, 5)),                # grid misalignment, seconds
    st.sampled_from((20, 40, 60)),          # step >= resolution, seconds
)
@settings(max_examples=300, deadline=None)
def test_bulk_range_query_matches_per_step_on_compacted_store(
    values_by_series, query, shards, start_s, skew_s, step_s
):
    """Aligned windows are served rollup ⊕ raw, misaligned ones raw —
    same results and the same ``downsampled_reads_total`` as per step."""
    tsdb = _fill(
        build_storage_engine(shards, block_policy=_POLICY), values_by_series
    )
    longest = max(len(values) for _phase, values in values_by_series.values())
    end_ns = (longest + 2) * seconds(5)
    tsdb.compact(end_ns)
    engine = QueryEngine(tsdb)
    start_ns = min(seconds(start_s + skew_s), end_ns)
    oracle = _RollupOracle(tsdb, seconds(step_s))
    expected = oracle.range_query_per_step(
        query, start_ns, end_ns, seconds(step_s)
    )
    before = tsdb.storage_stats()["downsampled_reads_total"]
    assert _bits(
        engine.range_query(query, start_ns, end_ns, seconds(step_s))
    ) == _bits(expected)
    served = tsdb.storage_stats()["downsampled_reads_total"] - before
    assert served == oracle.downsampled_reads


# ---------------------------------------------------------------------------
# Re-entrancy: a query's state lives on its own grid, not on the engine
# ---------------------------------------------------------------------------
_REENTRANT_QUERIES = (
    "avg_over_time(ebpf_syscalls_total[1m])",
    "sum by (name) (rate(ebpf_syscalls_total[1m]))",
    "topk(2, max_over_time(ebpf_syscalls_total[40s]))",
    "ebpf_syscalls_total - ebpf_syscalls_total offset 30s",
)


def _reentrancy_store(shards=1):
    tsdb = build_storage_engine(shards, block_policy=_POLICY)
    _fill(tsdb, {
        (name, idx): (idx, [float((step * 7 + idx * 13) % 50)
                            for step in range(60)])
        for name in ("read", "write") for idx in range(3)
    })
    tsdb.compact(seconds(310))
    assert tsdb.has_rollups()
    return tsdb


def _windows():
    return [
        (seconds(20 * i), seconds(300), seconds(20 + 20 * (i % 2)))
        for i in range(len(_REENTRANT_QUERIES))
    ]


def test_range_query_is_reentrant_through_a_selector_callback():
    """A range query issued from inside another one's select returns
    what it returns in isolation, and so does the outer one."""
    tsdb = _reentrancy_store()
    engine = QueryEngine(tsdb)
    cases = list(zip(_REENTRANT_QUERIES, _windows()))
    isolated = [
        _bits(engine.range_query(query, *window)) for query, window in cases
    ]
    nested = {}
    select_rollups = tsdb.select_rollups

    def select_then_reenter(matchers, start_ns, end_ns):
        if not nested:
            nested["running"] = True
            for index, (query, window) in enumerate(cases[1:], start=1):
                nested[index] = _bits(engine.range_query(query, *window))
        return select_rollups(matchers, start_ns, end_ns)

    tsdb.select_rollups = select_then_reenter
    outer = engine.range_query(cases[0][0], *cases[0][1])
    assert _bits(outer) == isolated[0]
    assert [nested[index] for index in range(1, len(cases))] == isolated[1:]


def test_range_query_is_reentrant_across_threads():
    """Threads sharing one engine over a sharded store: every result
    equals the single-threaded one."""
    tsdb = _reentrancy_store(shards=4)
    engine = QueryEngine(tsdb)
    cases = list(zip(_REENTRANT_QUERIES, _windows()))
    isolated = [
        _bits(engine.range_query(query, *window)) for query, window in cases
    ]
    mismatches = []

    def worker(index):
        query, window = cases[index % len(cases)]
        for _ in range(40):
            result = engine.range_query(query, *window)
            if _bits(result) != isolated[index % len(cases)]:
                mismatches.append(index)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


# ---------------------------------------------------------------------------
# Indexed windows vs the seed linear scan
# ---------------------------------------------------------------------------
def _linear_window(series: ChunkedSeries, start_ns: int, end_ns: int):
    """The seed algorithm: decode every chunk, filter by comparison."""
    result = []
    for chunk in series._chunks:  # noqa: SLF001 - reference implementation
        if chunk.start_ns > end_ns:
            break
        if chunk.end_ns < start_ns:
            continue
        for sample in chunk.samples():
            if sample.time_ns > end_ns:
                break
            if sample.time_ns >= start_ns:
                result.append(sample)
    return result


_times_strategy = st.lists(
    st.integers(0, 3000), min_size=0, max_size=300, unique=True
).map(sorted)


@given(_times_strategy, st.integers(0, 3000), st.integers(0, 3000))
@settings(max_examples=150, deadline=None)
def test_window_matches_linear_scan(times, a, b):
    start_ns, end_ns = min(a, b), max(a, b)
    series = ChunkedSeries()
    for time_ns in times:
        series.append(time_ns, float(time_ns) * 0.5)
    expected = _linear_window(series, start_ns, end_ns)
    assert series.window(start_ns, end_ns) == expected
    array_times, array_values = series.window_arrays(start_ns, end_ns)
    assert list(array_times) == [s.time_ns for s in expected]
    assert list(array_values) == [s.value for s in expected]


@given(_times_strategy)
@settings(max_examples=100, deadline=None)
def test_last_sample_matches_window(times):
    series = ChunkedSeries()
    for time_ns in times:
        series.append(time_ns, float(time_ns) + 0.25)
    if not times:
        assert series.last_sample() is None
        return
    last_ns = series.last_time_ns()
    assert series.last_sample() == series.window(last_ns, last_ns)[-1]


@given(_times_strategy, st.integers(0, 3500))
@settings(max_examples=100, deadline=None)
def test_drop_before_matches_seed_semantics(times, cutoff_ns):
    """Chunk-granular retention: identical survivors and drop count."""
    series = ChunkedSeries()
    reference = ChunkedSeries()
    for time_ns in times:
        series.append(time_ns, 1.0)
        reference.append(time_ns, 1.0)
    # Seed algorithm: pop whole chunks from the front while stale.
    expected_dropped = 0
    while reference._chunks and reference._chunks[0].end_ns < cutoff_ns:  # noqa: SLF001
        expected_dropped += len(reference._chunks[0])  # noqa: SLF001
        reference._chunks.pop(0)  # noqa: SLF001
        reference._starts.pop(0)  # noqa: SLF001
    assert series.drop_before(cutoff_ns) == expected_dropped
    horizon = max(times) + 1 if times else 1
    assert series.window(0, horizon) == _linear_window(reference, 0, horizon)
    assert series.sample_count == sum(len(c) for c in reference._chunks)  # noqa: SLF001


# ---------------------------------------------------------------------------
# Column-form range functions vs the Sample-form originals
# ---------------------------------------------------------------------------
@given(
    st.sampled_from(sorted(RANGE_FUNCTIONS)),
    st.lists(
        st.tuples(
            st.integers(0, 10_000),
            st.one_of(st.floats(0, 1e9), st.just(float("nan"))),
        ),
        min_size=1, max_size=30,
        unique_by=lambda pair: pair[0],
    ).map(sorted),
    # Nondecreasing window bounds, as a step grid produces them.
    st.lists(
        st.tuples(st.integers(0, 3_000), st.integers(0, 3_000)),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
def test_column_functions_match_sample_functions(name, points, raw_windows):
    times = [t for t, _ in points]
    values = [v for _, v in points]
    windows, low, high = [], 0, 0
    for advance, width in raw_windows:
        low += advance
        high = max(high, low + width)
        windows.append((low, high))
    range_ns = seconds(60)
    expected = []
    for low, high in windows:
        samples = [Sample(t, v) for t, v in points if low <= t <= high]
        try:
            # Evaluation never hands an empty window to a range function
            # (the select drops sample-less series first).
            expected.append(
                RANGE_FUNCTIONS[name](samples, range_ns) if samples else None
            )
        except QueryError:
            expected.append(None)
    prepare = COLUMN_RANGE_FUNCTIONS[name]
    column = prepare(times, *window_bounds(times, windows))(values)
    assert _bits(column) == _bits(expected)


def _folded_increase(values):
    """The form the closed one replaced: a left fold, from 0.0, of the
    per-pair increases, a drop counting from zero."""
    total = 0.0
    for previous, value in zip(values, values[1:]):
        total += value if value < previous else value - previous
    return total


@given(
    # Integer-valued counters, random enough to reset often.  With values
    # below 2**47 and at most 60 samples every partial sum of either form
    # is an integer below 2**53, so both are exact — why no digest moved.
    st.lists(st.integers(0, 2**47).map(float), min_size=1, max_size=60),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 30)),
        min_size=1, max_size=12,
    ),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_increase_equals_the_delta_fold_on_integer_counters(
    values, raw_windows
):
    times = [seconds(index + 1) for index in range(len(values))]
    windows, low, high = [], 0, 0
    for advance, width in raw_windows:
        low += seconds(advance)
        high = max(high, low + seconds(width))
        windows.append((low, high))
    bounds = window_bounds(times, windows)
    increase = COLUMN_RANGE_FUNCTIONS["increase"](times, *bounds)(values)
    rate = COLUMN_RANGE_FUNCTIONS["rate"](times, *bounds)(values)
    for lo, hi, got, got_rate in zip(*bounds[:2], increase, rate):
        if hi - lo < 2:
            assert got is None and got_rate is None
            continue
        folded = _folded_increase(values[lo:hi])
        assert _bits([got]) == _bits([folded])
        elapsed = times[hi - 1] - times[lo]
        assert _bits([got_rate]) == _bits([folded * 10**9 / elapsed])


# ---------------------------------------------------------------------------
# Chunk codec round trip (batched struct pack/unpack, simplified decode)
# ---------------------------------------------------------------------------
@given(
    st.integers(0, 10**15),
    st.lists(
        st.tuples(st.integers(1, 10**9), st.floats(allow_nan=False)),
        min_size=0, max_size=CHUNK_SIZE - 1,
    ),
)
@settings(max_examples=150, deadline=None)
def test_chunk_codec_roundtrip(start_ns, deltas_and_values):
    chunk = Chunk(start_ns)
    time_ns = start_ns
    for index, (delta, value) in enumerate(deltas_and_values):
        time_ns = start_ns if index == 0 else time_ns + delta
        chunk.append(time_ns, value)
    decoded = Chunk.decode(chunk.encode())
    assert decoded.start_ns == chunk.start_ns
    assert list(decoded.samples()) == list(chunk.samples())
    assert decoded.end_ns == chunk.end_ns


def test_chunk_codec_roundtrip_empty():
    chunk = Chunk(12345)
    decoded = Chunk.decode(chunk.encode())
    assert decoded.start_ns == 12345
    assert len(decoded) == 0
    assert list(decoded.samples()) == []


def test_chunk_codec_roundtrip_single_sample():
    chunk = Chunk(7)
    chunk.append(7, 3.25)
    decoded = Chunk.decode(chunk.encode())
    assert list(decoded.samples()) == [Sample(7, 3.25)]


def test_chunk_decode_rejects_corrupt_deltas():
    chunk = Chunk(0)
    chunk.append(0, 1.0)
    chunk.append(10, 2.0)
    data = bytearray(chunk.encode())
    # Flip the second delta negative: 10 -> -10 (little-endian signed q).
    import struct
    struct.pack_into("<q", data, 12 + 8, -10)
    from repro.errors import TsdbError
    with pytest.raises(TsdbError):
        Chunk.decode(bytes(data))
