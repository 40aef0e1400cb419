"""Batch ingest: ``Tsdb.append_batch``, which writes the common entry
straight into its series' head chunk, against the reference body that
sends every entry through ``ChunkedSeries.append``
(``tests/tsdb_oracle.py``) — rejections, chunk columns and boundaries,
ingest counters, the expiry floor, WAL bytes and feed batches; the
running sample total against the per-series sum; and the sealed chunks'
exact-size value columns."""

import sys
from array import array

from hypothesis import given, settings, strategies as st

from repro.pmag import archive
from repro.pmag.chunks import CHUNK_SIZE, ChunkedSeries
from repro.pmag.model import Labels, Matcher
from repro.pmag.tsdb import ArrivalFeed, Tsdb
from repro.pmag.wal import WalWriter, recover
from repro.simkernel.disk import SimDisk
from tests.tsdb_oracle import ReferenceTsdb

SERIES = [Labels.of("m", i=str(i)) for i in range(4)] + [
    Labels({"job": "x"}),   # no metric name
    Labels.of("", i="0"),   # an empty one
]

NAN = float("nan")

# An entry is a series, a step from that series' clock and a value;
# some steps go backwards or stand still, some timestamps are not
# storable int64s at all.
_odd_times = st.sampled_from([True, False, 1.5, float("nan"), 1 << 63,
                              -(1 << 63) - 1, "7", None])
_values = st.one_of(
    st.floats(allow_nan=False, width=32), st.just(NAN), st.just(True),
    st.just("1.0"), st.just(None), st.just(10 ** 400),
    st.integers(-5, 5))
_entry = st.tuples(
    st.integers(0, len(SERIES) - 1),
    st.one_of(st.integers(-3, 8), _odd_times),
    _values)
# A run of one series at step 1: enough of them fill heads and seal them.
_run = st.tuples(st.integers(0, 3), st.integers(1, CHUNK_SIZE + 10))
_batch = st.lists(st.one_of(_entry, _run), max_size=12)


def _expand(batch, clocks):
    """Entries of ``batch``; a step moves its series' clock (accepted or
    not), an odd timestamp is used as it is."""
    entries = []
    for item in batch:
        if len(item) == 2:
            index, length = item
            start = clocks.get(index, 0)
            clocks[index] = start + length
            entries.extend((SERIES[index], start + step, float(step))
                           for step in range(1, length + 1))
            continue
        index, step, value = item
        if isinstance(step, int) and not isinstance(step, bool):
            time_ns = clocks[index] = clocks.get(index, 0) + step
        else:
            time_ns = step
        entries.append((SERIES[index], time_ns, value))
    return entries


def _state(tsdb):
    """Everything a batch can change in the store, byte for byte."""
    return (
        [(labels, storage.sample_count,
          [(chunk.start_ns, chunk._times.tobytes(),  # noqa: SLF001
            chunk._values.tobytes())  # noqa: SLF001
           for chunk in storage._chunks])  # noqa: SLF001
         for labels, storage in tsdb.series_items()],
        {pair: dict(members)
         for pair, members in tsdb._postings.items()},  # noqa: SLF001
        tsdb.total_appends,
        tsdb.sample_count(),
        tsdb._expiry_floor_ns,  # noqa: SLF001
    )


def _store(kind, disk, retention_ns):
    tsdb = kind(retention_ns=retention_ns)
    tsdb.attach_wal(WalWriter(disk, flush_every_records=7,
                              segment_max_records=50))
    feed = ArrivalFeed()
    tsdb.attach_feed(feed)
    return tsdb, feed


def _media(disk):
    return {name: disk.read(name) for name in disk.list_files()}


@given(st.lists(st.one_of(_batch, st.integers(0, 900)), max_size=10),
       st.sampled_from([None, 60, 300]))
@settings(deadline=None)
def test_append_batch_matches_the_reference_body(steps, retention_ns):
    # Same batches into both stores, with a retention pass now and then
    # (an integer step) so the floor is raised and lowered again.
    disks = SimDisk(), SimDisk()
    (fast, fast_feed), (slow, slow_feed) = (
        _store(Tsdb, disks[0], retention_ns),
        _store(ReferenceTsdb, disks[1], retention_ns))
    clocks = {}
    for step in steps:
        if isinstance(step, int):
            assert fast.enforce_retention(step) == slow.enforce_retention(step)
        else:
            entries = _expand(step, clocks)
            assert fast.append_batch(entries) == slow.append_batch(entries)
        assert _state(fast) == _state(slow)
        assert fast_feed.batches == slow_feed.batches
        assert fast_feed.unsure_below_ns == slow_feed.unsure_below_ns
        assert _media(disks[0]) == _media(disks[1])
    for tsdb in (fast, slow):
        tsdb._wal.flush()  # noqa: SLF001
    assert _media(disks[0]) == _media(disks[1])
    assert _state(recover(disks[0])[0])[0] == _state(recover(disks[1])[0])[0]


_ops = st.one_of(
    st.tuples(st.just("batch"), _batch),
    st.tuples(st.just("run"), st.tuples(
        st.integers(0, 5), st.integers(-5, 20),
        st.integers(0, 2 * CHUNK_SIZE + 5))),
    st.tuples(st.just("retain"), st.integers(0, 1200)),
    st.tuples(st.just("delete"), st.sampled_from(["0", "1", "2", "3"])),
    st.tuples(st.just("install"), st.integers(0, CHUNK_SIZE + 3)),
    st.tuples(st.just("restore"), st.none()),
)


@given(st.lists(_ops, max_size=25))
@settings(deadline=None)
def test_the_running_sample_total_is_the_per_series_sum(ops):
    tsdb = Tsdb(retention_ns=250)
    clocks = {}
    installed = 0
    for kind, arg in ops:
        if kind == "batch":
            tsdb.append_batch(_expand(arg, clocks))
        elif kind == "run":
            index, offset, length = arg
            start = clocks.get(index, 0) + offset
            clocks[index] = start + length
            tsdb.append_run(SERIES[index], list(range(start, start + length)),
                            [0.5] * length)
        elif kind == "retain":
            tsdb.enforce_retention(arg)
        elif kind == "delete":
            tsdb.delete_series([Matcher.eq("i", arg)])
        elif kind == "install":
            storage = ChunkedSeries()
            storage.append_run(list(range(1, arg + 1)), [1.0] * arg)
            installed += 1
            tsdb.install_series(Labels.of("installed", n=str(installed)),
                                storage)
        else:
            tsdb = archive.restore(archive.snapshot(tsdb))
            tsdb.retention_ns = 250
        assert tsdb.sample_count() == sum(
            storage.sample_count for _labels, storage in tsdb.series_items())


def test_sealed_value_columns_hold_exactly_a_chunk():
    # Appends grow a head's value column with spare cells; sealing the
    # chunk copies the column to its length, and it reads back the same.
    tsdb = Tsdb()
    labels = Labels.of("m")
    times = list(range(1, 2 * CHUNK_SIZE + 2))
    values = [t / 3 for t in times]
    for time_ns, value in zip(times, values):
        tsdb.append_batch([(labels, time_ns, value)])
    storage = dict(tsdb.series_items())[labels]
    sealed, second, head = storage._chunks  # noqa: SLF001
    exact = sys.getsizeof(array("d", [0.0] * CHUNK_SIZE))
    for chunk in (sealed, second):
        assert len(chunk) == CHUNK_SIZE
        assert sys.getsizeof(chunk._values) == exact  # noqa: SLF001
    assert len(head) == 1
    got_times, got_values, _reset_free = storage.window_arrays(0, 10 ** 9)
    assert got_times.tolist() == times
    assert got_values.tolist() == values


def test_constant_value_columns_of_a_store_are_shared_when_sealed():
    # Sealed value columns that hold one value are shared like timestamp
    # columns, compared byte for byte; a column that moves is not.
    tsdb = Tsdb()
    stamps = range(1, 2 * CHUNK_SIZE + 2)
    zero = [0.0] * len(stamps)
    signed = list(zero)
    signed[5] = -0.0
    columns = {"a": zero, "b": list(zero), "c": signed,
               "d": [float(t) for t in stamps], "e": [NAN] * len(stamps)}
    for name, values in columns.items():
        tsdb.append_batch([(Labels.of(name), time_ns, value)
                           for time_ns, value in zip(stamps, values)])
    sealed = {labels.metric_name: [chunk._values  # noqa: SLF001
                                   for chunk in storage._chunks[:2]]  # noqa: SLF001
              for labels, storage in tsdb.series_items()}
    for index in (0, 1):
        assert sealed["a"][index] is sealed["b"][index]
    # The -0.0 is in the first chunk only.
    assert sealed["c"][0] is not sealed["a"][0]
    assert sealed["c"][1] is sealed["a"][1]
    assert sealed["d"][0] is not sealed["d"][1]
    assert sealed["e"][0] is not sealed["e"][1]
    for name, values in columns.items():
        (_labels, _times, got, _reset_free), = tsdb.select_arrays(
            [Matcher.eq("__name__", name)], 0, 10 ** 9)
        assert got.tobytes() == array("d", values).tobytes()
