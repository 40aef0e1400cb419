"""The reset-free shortcut of ``rate``/``increase`` against their general path.

A select reports, per series, whether the window's values are NaN-free
and nondecreasing (``reset_free``), read from per-chunk facts
(:meth:`repro.pmag.chunks.Chunk.rising`).  With the flag the counter
columns skip the reset scan.  These tests hold that:

* whenever the flag is true, :func:`counter_resets` finds nothing and the
  window holds no NaN — so the shortcut answers what the scan would;
* the flagged columns equal the unflagged ones float bit for float bit;
* over series built by scalar appends, runs, a snapshot restore
  (``adopt_chunk``) and retention, with windows that cut chunks, NaN,
  ``±inf``, drops landing on chunk boundaries, plateaus, and a head
  chunk that grows after it was read.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.pmag.archive import restore, snapshot
from repro.pmag.chunks import CHUNK_SIZE, ChunkedSeries
from repro.pmag.model import Labels, Matcher
from repro.pmag.query.engine import QueryEngine
from repro.pmag.query.functions import (
    COLUMN_RANGE_FUNCTIONS, counter_resets, window_bounds,
)
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds

from tests.query_oracle import range_query_per_step

INF = float("inf")
NAN = float("nan")
SELECT_M = [Matcher.eq("__name__", "m")]


def _bits(value):
    return repr(value)


def _labels(index: int) -> Labels:
    return Labels({"__name__": "m", "s": str(index)})


def _time(index: int) -> int:
    return seconds(index + 1)


# ---------------------------------------------------------------------------
# Value streams
# ---------------------------------------------------------------------------
#: What the next sample does to a counter: rise, hold (a plateau), drop
#: to a reset, or take an odd value.
_STEP = st.one_of(
    st.integers(1, 5).map(float),
    st.just(0.0),
    st.sampled_from(["reset", NAN, INF, -INF]),
)


def _counter(steps, boundary_drops):
    """Values from ``steps``; every index in ``boundary_drops`` (chunk
    starts) is forced to a reset."""
    values, level = [], 0.0
    for index, step in enumerate(steps):
        if index in boundary_drops or step == "reset":
            level = 0.0
            values.append(level)
        elif not math.isfinite(step):
            values.append(step)  # odd sample; the counter carries on
        else:
            level += step
            values.append(level)
    return values


def _stream():
    """One series: mostly rising (so the shortcut is taken often), with
    the odd step and drops at chunk starts mixed in."""
    size = st.integers(1, 3 * CHUNK_SIZE + 30)
    return size.flatmap(lambda n: st.tuples(
        st.lists(
            st.one_of(st.integers(1, 5).map(float), st.just(0.0)),
            min_size=n, max_size=n,
        ),
        st.dictionaries(st.integers(0, n - 1), _STEP, max_size=4),
        st.sets(st.sampled_from([CHUNK_SIZE, 2 * CHUNK_SIZE, 3 * CHUNK_SIZE]),
                max_size=2),
    ).map(lambda parts: _counter(
        [parts[1].get(i, step) for i, step in enumerate(parts[0])],
        parts[2],
    )))


def _grid_windows(start_ns, end_ns, range_ns, step_ns):
    return [(t - range_ns, t) for t in range(start_ns, end_ns + 1, step_ns)]


def _check(tsdb, start_ns, end_ns, range_ns, step_ns):
    """Select; the flags hold what they claim, and the flagged counter
    columns match the general path bit for bit."""
    windows = _grid_windows(start_ns, end_ns, range_ns, step_ns)
    for _labels, times, values, reset_free in tsdb.select_arrays(
            SELECT_M, start_ns - range_ns, end_ns):
        assert isinstance(reset_free, bool)
        if not reset_free:
            continue
        assert counter_resets(list(values)) == []
        assert not any(v != v for v in values)
        bounds = window_bounds(times, windows)
        for name in ("rate", "increase"):
            column = COLUMN_RANGE_FUNCTIONS[name](times, *bounds)
            assert _bits(column(values, True)) == _bits(column(values, False))


def _ingest(engine, labels, times, values, scalar):
    if scalar:
        for time_ns, value in zip(times, values):
            engine.append(labels, time_ns, value)
    else:
        engine.append_run(labels, times, values)


@given(
    st.lists(_stream(), min_size=1, max_size=3),
    # Ingest in pieces, each by scalar appends or one run, with a check
    # between pieces: the head chunk is read, then grows — from a reset
    # right at the seam, if the piece's third field says so.
    st.lists(st.tuples(st.integers(1, 200), st.booleans(), st.booleans()),
             min_size=1, max_size=4),
    st.booleans(),
    st.one_of(st.none(), st.integers(1, 2 * CHUNK_SIZE)),
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 400),
                       st.integers(2, 150), st.integers(1, 40)),
             min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_reset_free_columns_match_the_general_path(
    streams, pieces, snapshot_midway, retention_s, queries
):
    tsdb = Tsdb()
    longest = max(len(values) for values in streams)
    end_s = longest + 1

    def check_all():
        for a, b, range_s, step_s in queries:
            low, high = sorted((min(a, end_s), min(b, end_s)))
            _check(tsdb, seconds(low), seconds(high),
                   seconds(range_s), seconds(step_s))

    position = 0
    for number, (size, scalar, seam_reset) in enumerate(pieces):
        upto = longest if number == len(pieces) - 1 else position + size
        for index, values in enumerate(streams):
            piece = values[position:upto]
            if seam_reset and piece:
                piece[0] = 0.0
            times = [_time(i) for i in range(position, position + len(piece))]
            _ingest(tsdb, _labels(index), times, piece, scalar)
        position = upto
        check_all()
        if snapshot_midway and number == 0:
            # Chunks come back through ``adopt_chunk`` with their layout.
            tsdb = restore(bytes(snapshot(tsdb)))
            check_all()
        if position >= longest:
            break
    if retention_s is not None:
        tsdb.retention_ns = seconds(retention_s)
        tsdb.enforce_retention(seconds(end_s))
        check_all()


@given(_stream(), st.integers(0, 400), st.integers(2, 120))
@settings(max_examples=60, deadline=None)
def test_rate_queries_match_the_per_step_oracle(values, lag_s, range_s):
    """Through the query engine: the grid hands the flag on, and what it
    returns is what the seed per-step evaluator computes."""
    tsdb = Tsdb()
    tsdb.append_run(_labels(0), [_time(i) for i in range(len(values))],
                    values)
    end = seconds(len(values) + 1)
    window = (max(0, end - seconds(lag_s)), end, seconds(7))
    query_engine = QueryEngine(tsdb)
    for query in (f"rate(m[{range_s}s])", f"increase(m[{range_s}s])"):
        assert _bits(query_engine.range_query(query, *window)) == _bits(
            range_query_per_step(tsdb, query, *window))


# ---------------------------------------------------------------------------
# The facts themselves
# ---------------------------------------------------------------------------
def _series(values):
    series = ChunkedSeries()
    series.append_run([_time(i) for i in range(len(values))], values)
    return series


def _window(series, first, last):
    return series.window_arrays(_time(first), _time(last))


def test_a_rising_series_reads_reset_free_and_chunks_keep_the_fact():
    series = _series([float(i // 3) for i in range(2 * CHUNK_SIZE + 10)])
    chunks = series._chunks  # noqa: SLF001
    # Ingest checks nothing; the first read checks each chunk once.
    assert [chunk._rising for chunk in chunks] == [0, 0, 0]  # noqa: SLF001
    assert _window(series, 0, 2 * CHUNK_SIZE + 9)[2] is True
    assert [chunk._rising for chunk in chunks] == [  # noqa: SLF001
        CHUNK_SIZE, CHUNK_SIZE, 10]


def test_a_drop_exactly_at_a_chunk_boundary_is_seen():
    values = [float(i) for i in range(2 * CHUNK_SIZE)]
    values[CHUNK_SIZE] = 0.0
    series = _series(values)
    assert _window(series, 0, 2 * CHUNK_SIZE - 1)[2] is False
    # Each side of the boundary alone is still rising.
    assert _window(series, 0, CHUNK_SIZE - 1)[2] is True
    assert _window(series, CHUNK_SIZE, 2 * CHUNK_SIZE - 1)[2] is True


def test_a_window_cutting_a_chunk_reads_the_whole_chunks_fact():
    values = [float(i) for i in range(2 * CHUNK_SIZE)]
    values[5] = -1.0  # a drop before the window
    series = _series(values)
    times, window_values, reset_free = _window(series, 10, 2 * CHUNK_SIZE - 1)
    # Conservative: the window has no drop, the chunk it cuts does.
    assert reset_free is False
    assert counter_resets(list(window_values)) == []


def test_nan_and_mixed_infinities_clear_the_flag_but_plateaus_of_inf_do_not():
    assert _window(_series([1.0, NAN, 2.0]), 0, 2)[2] is False
    assert _window(_series([-INF, 1.0, INF]), 0, 2)[2] is False
    assert _window(_series([1.0, 1.0, INF, INF]), 0, 3)[2] is True
    assert _window(_series([INF, INF]), 0, 1)[2] is True
    assert counter_resets([INF, INF]) == []


def test_the_head_chunk_is_rechecked_after_it_grows():
    series = _series([1.0, 2.0, 3.0])
    assert _window(series, 0, 10)[2] is True
    series.append(_time(3), 0.5)  # a reset across the seam of the last read
    times, values, reset_free = _window(series, 0, 10)
    assert reset_free is False
    assert counter_resets(list(values)) == [3]
    series.append(_time(4), 9.0)
    assert _window(series, 0, 10)[2] is False  # a drop stays a drop
    # A run that fills the head past what was read is checked from the
    # seam on; a NaN opening the next chunk clears the flag.
    grown = _series([float(i) for i in range(CHUNK_SIZE // 2)])
    assert _window(grown, 0, CHUNK_SIZE)[2] is True
    assert grown._chunks[0]._rising == CHUNK_SIZE // 2  # noqa: SLF001
    more = range(CHUNK_SIZE // 2, CHUNK_SIZE)
    grown.append_run([_time(i) for i in more], [float(i) for i in more])
    assert _window(grown, 0, CHUNK_SIZE)[2] is True
    grown.append(_time(CHUNK_SIZE), NAN)  # opens a new head chunk
    assert _window(grown, 0, CHUNK_SIZE)[2] is False
    facts = [chunk._rising for chunk in grown._chunks]  # noqa: SLF001
    assert facts == [CHUNK_SIZE, -1]


def test_retention_drops_chunks_with_their_facts():
    values = [float(i) for i in range(3 * CHUNK_SIZE)]
    values[CHUNK_SIZE // 2] = 0.0  # a reset in the oldest chunk only
    series = _series(values)
    assert _window(series, 0, 3 * CHUNK_SIZE - 1)[2] is False
    series.drop_before(_time(CHUNK_SIZE))
    assert series.chunk_count == 2
    assert _window(series, 0, 3 * CHUNK_SIZE - 1)[2] is True
