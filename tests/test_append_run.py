"""Run-shaped ingest: ``Tsdb.append_run`` / ``ChunkedSeries.append_run``
against the scalar ``append`` they must be indistinguishable from —
accept/reject per sample, chunk boundaries, series creation order and
WAL write-through — and the retention low-water mark against the full
scan it lets ``enforce_retention`` skip."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TsdbError
from repro.pmag import archive
from repro.pmag.chunks import CHUNK_SIZE, ChunkedSeries
from repro.pmag.model import Labels, Matcher
from repro.pmag.storage import shard_for
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import PartitionMap, WalWriter, open_log, recover
from repro.simkernel.disk import SimDisk

SERIES = [Labels.of("m", i=str(i)) for i in range(3)] + [Labels({"job": "x"})]


def _state(tsdb):
    """Everything retention and ingest can change."""
    return (
        [(labels, [(chunk.start_ns, list(chunk._times), list(chunk._values))
                   for chunk in storage._chunks])  # noqa: SLF001
         for labels, storage in tsdb.series_items()],
        {pair: set(members) for pair, members in tsdb._postings.items()},  # noqa: SLF001
        tsdb.total_appends,
    )


def _append_each(tsdb, labels, times, values):
    rejected = 0
    for time_ns, value in zip(times, values):
        try:
            tsdb.append(labels, time_ns, value)
        except TsdbError:
            rejected += 1
    return len(times) - rejected, rejected


# A run: a start and steps that are mostly forward, sometimes not, long
# enough now and then to cross a chunk boundary or two.
_steps = st.lists(st.integers(-2, 6), min_size=0, max_size=40) | st.lists(
    st.integers(1, 3), min_size=CHUNK_SIZE - 5, max_size=2 * CHUNK_SIZE + 5)
_runs = st.tuples(
    st.sampled_from(SERIES), st.integers(0, 400), _steps,
    st.sampled_from(["q", "list", "mixed"]))


def _columns(start, steps, shape):
    times = [start]
    for step in steps:
        times.append(times[-1] + step)
    values = [t / 8 for t in times]
    if shape == "q":
        return array("q", times), array("d", values)
    if shape == "mixed" and len(times) > 2:
        # What typed columns refuse, in the middle of a run.
        times[1] = 1.5
        values[2] = None
    return times, values


@given(st.lists(_runs, max_size=12))
@settings(deadline=None)
def test_append_run_is_scalar_append_sample_for_sample(runs):
    disks = SimDisk(), SimDisk()
    stores = []
    for disk in disks:
        tsdb = Tsdb()
        tsdb.attach_wal(WalWriter(disk, flush_every_records=7,
                                  segment_max_records=50))
        stores.append(tsdb)
    by_run, by_sample = stores
    for labels, start, steps, shape in runs:
        times, values = _columns(start, steps, shape)
        assert by_run.append_run(labels, times, values) == _append_each(
            by_sample, labels, times, values)
        assert _state(by_run) == _state(by_sample)
    # The WAL saw the same accepted samples, in the same order.
    logs = [recover(disk)[0] for disk in disks]
    assert _state(logs[0]) == _state(logs[1])


def test_append_run_fills_chunks_by_slice_without_aliasing():
    series = ChunkedSeries()
    series.append(5, 0.5)
    times = array("q", range(10, 10 + 2 * CHUNK_SIZE))
    values = array("d", [t / 2 for t in times])
    assert series.append_run(times, values) == []
    assert series.sample_count == 1 + 2 * CHUNK_SIZE
    assert [len(chunk) for chunk in series._chunks] == [  # noqa: SLF001
        CHUNK_SIZE, CHUNK_SIZE, 1]
    times[0] = values[0] = -1  # the caller's columns stay the caller's
    assert series.window_arrays(0, 10**9)[0][1] == 10
    with pytest.raises(TsdbError, match="differ in length"):
        series.append_run([1, 2], [1.0])
    assert series.append_run([], []) == []


def test_append_run_rejections_are_positions():
    series = ChunkedSeries()
    assert series.append_run([5, 3, 4, 6, 6, 7], [0.0] * 6) == [1, 2, 4]
    assert series.window_arrays(0, 100)[0].tolist() == [5, 6, 7]


def test_sharded_engine_routes_runs_to_the_owning_shard():
    # A run lands in the one index and is logged whole in the partition
    # its series routes to — the same records the per-shard writer of
    # the sharded engine took.
    mono, disk = Tsdb(), SimDisk()
    store = Tsdb()
    store.attach_wal(open_log(disk, "wal", PartitionMap(4), 0))
    for labels in SERIES[:3]:
        for engine in (mono, store):
            assert engine.append_run(labels, [1, 2, 2, 3], [0.0] * 4) == (3, 1)
    assert store.select_arrays([], 0, 10) == mono.select_arrays([], 0, 10)
    writers = store._wal.writers  # noqa: SLF001
    for labels in SERIES[:3]:
        owner = shard_for(labels, 4)
        assert [labels in writer._series for writer in writers] == [  # noqa: SLF001
            index == owner for index in range(4)]
    assert sum(writer.records_total for writer in writers) == 9
    # Mismatched columns raise with or without the log and change nothing.
    for engine in (mono, store):
        before = (engine.select_arrays([], 0, 10), engine.total_appends)
        for labels in (SERIES[0], Labels.of("m", i="new")):
            with pytest.raises(TsdbError, match="differ in length"):
                engine.append_run(labels, [4, 5], [1.0])
        assert (engine.select_arrays([], 0, 10), engine.total_appends) == before
        assert engine.series_count() == 3
    assert sum(writer.records_total for writer in writers) == 9


# ---------------------------------------------------------------------------
# Retention: the low-water mark against the full scan
# ---------------------------------------------------------------------------
def full_scan_retention(tsdb, now_ns):
    """``Tsdb.enforce_retention`` as it stood before the low-water mark:
    every series, every pass."""
    if tsdb.retention_ns is None:
        return 0
    cutoff = now_ns - tsdb.retention_ns
    dropped = 0
    empty = []
    for labels, storage in tsdb._series.items():  # noqa: SLF001
        dropped += storage.drop_before(cutoff)
        if storage.sample_count == 0:
            empty.append(labels)
    for labels in empty:
        tsdb._unindex(labels)  # noqa: SLF001
    return dropped


def _round_trip(tsdb, retention_ns):
    copy = archive.restore(archive.snapshot(tsdb))
    copy.retention_ns = retention_ns
    return copy


_retention_ops = st.one_of(
    st.tuples(st.just("run"), _runs),
    st.tuples(st.just("batch"), st.lists(
        st.tuples(st.sampled_from(SERIES[:3]), st.integers(0, 600)),
        max_size=8)),
    st.tuples(st.just("retain"), st.integers(0, 900)),
    st.tuples(st.just("delete"), st.sampled_from(["0", "1", "2"])),
    st.tuples(st.just("restore"), st.none()),
)


@given(st.lists(_retention_ops, max_size=25),
       st.sampled_from([40, 130, 300]))
@settings(deadline=None)
def test_retention_with_the_low_water_mark_equals_the_full_scan(
        ops, retention_ns):
    # Same operations on two stores; one expires through the low-water
    # mark, the other by scanning every series on every pass.  The clock
    # may run backwards and samples may arrive late: the mark has to be
    # lowered by whatever lands or is installed.
    fast = Tsdb(retention_ns=retention_ns)
    scan = Tsdb(retention_ns=retention_ns)
    for kind, arg in ops:
        if kind == "run":
            labels, start, steps, shape = arg
            times, values = _columns(start, steps, "list" if shape == "mixed"
                                     else shape)
            assert (fast.append_run(labels, times, values)
                    == scan.append_run(labels, times, values))
        elif kind == "batch":
            batch = [(labels, t, t / 4) for labels, t in arg]
            assert fast.append_batch(batch) == scan.append_batch(batch)
            for labels, t in arg[:1]:
                for tsdb in (fast, scan):
                    try:
                        tsdb.append(labels, t + 1, 0.0)
                    except TsdbError:
                        pass
        elif kind == "retain":
            assert fast.enforce_retention(arg) == full_scan_retention(scan, arg)
        elif kind == "delete":
            matchers = [Matcher.eq("i", arg)]
            assert fast.delete_series(matchers) == scan.delete_series(matchers)
        else:
            # A checkpoint round trip installs whole series into a store
            # whose mark starts from nothing.
            fast, scan = (
                _round_trip(tsdb, retention_ns) for tsdb in (fast, scan))
        assert _state(fast) == _state(scan)


def test_a_pass_with_nothing_to_expire_looks_at_no_series():
    tsdb = Tsdb(retention_ns=1000)
    for labels in SERIES[:3]:
        tsdb.append_run(labels, list(range(100, 100 + 3 * CHUNK_SIZE)),
                        [0.0] * 3 * CHUNK_SIZE)

    class Tripwire(dict):
        def items(self):
            raise AssertionError("scanned")

    series = tsdb._series  # noqa: SLF001
    tsdb._series = Tripwire(series)  # noqa: SLF001
    oldest_chunk_end = 100 + CHUNK_SIZE - 1
    assert tsdb.enforce_retention(1000 + oldest_chunk_end) == 0
    with pytest.raises(AssertionError, match="scanned"):
        tsdb.enforce_retention(1000 + oldest_chunk_end + 1)
    tsdb._series = series  # noqa: SLF001
    assert tsdb.enforce_retention(1000 + oldest_chunk_end + 1) == 3 * CHUNK_SIZE
    # The scan left the mark at the next chunk to expire.
    assert tsdb._expiry_floor_ns == 100 + 2 * CHUNK_SIZE - 1  # noqa: SLF001
