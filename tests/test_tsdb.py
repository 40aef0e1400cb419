"""TSDB model, chunks and database tests."""

from array import array

import pytest
from hypothesis import example as hyp_example
from hypothesis import given as hyp_given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as hyp_st

from repro.errors import TsdbError
from repro.pmag.chunks import CHUNK_SIZE, Chunk, ChunkedSeries
from repro.pmag.model import Labels, Matcher, Sample
from repro.pmag.tsdb import Tsdb
from tests.codec_oracle import reference_chunk_bytes


# ---------------------------------------------------------------------------
# Labels and matchers
# ---------------------------------------------------------------------------
def test_labels_hashable_and_order_insensitive():
    a = Labels({"b": "2", "a": "1"})
    b = Labels({"a": "1", "b": "2"})
    assert a == b
    assert hash(a) == hash(b)


def test_labels_of_builds_name_label():
    labels = Labels.of("up", job="sme")
    assert labels.metric_name == "up"
    assert labels.get("job") == "sme"
    assert labels.has("job") and not labels.has("nope")


def test_labels_without_and_keep_only():
    labels = Labels.of("m", a="1", b="2", c="3")
    assert labels.without("a").get("a") == ""
    kept = labels.keep_only(["b"])
    assert kept.items() == (("b", "2"),)


def test_labels_with_label_replaces():
    labels = Labels.of("m", a="1")
    assert labels.with_label("a", "9").get("a") == "9"


def test_non_string_labels_rejected():
    with pytest.raises(TsdbError):
        Labels({"a": 1})  # type: ignore[dict-item]


def test_matcher_semantics():
    labels = Labels.of("m", name="clock_gettime")
    assert Matcher.eq("name", "clock_gettime").matches(labels)
    assert not Matcher.ne("name", "clock_gettime").matches(labels)
    assert Matcher.regex("name", "clock.*").matches(labels)
    assert not Matcher.regex("name", "clock").matches(labels)  # anchored
    assert Matcher.not_regex("name", "futex.*").matches(labels)
    assert Matcher.eq("absent", "").matches(labels)  # missing label == ""


# ---------------------------------------------------------------------------
# Chunks
# ---------------------------------------------------------------------------
def test_chunk_append_and_iterate():
    chunk = Chunk(start_ns=100)
    chunk.append(100, 1.0)
    chunk.append(150, 2.0)
    assert [s.time_ns for s in chunk.samples()] == [100, 150]
    assert [s.value for s in chunk.samples()] == [1.0, 2.0]
    assert chunk.end_ns == 150


def test_chunk_rejects_out_of_order():
    chunk = Chunk(start_ns=100)
    chunk.append(100, 1.0)
    with pytest.raises(TsdbError):
        chunk.append(100, 2.0)
    with pytest.raises(TsdbError):
        chunk.append(50, 2.0)


def test_chunk_encode_decode_roundtrip():
    chunk = Chunk(start_ns=1_000)
    for index in range(10):
        chunk.append(1_000 + index * 5_000_000_000, float(index) * 1.5)
    decoded = Chunk.decode(chunk.encode())
    assert list(decoded.samples()) == list(chunk.samples())


def test_chunk_decode_rejects_garbage():
    with pytest.raises(TsdbError):
        Chunk.decode(b"short")
    with pytest.raises(TsdbError):
        Chunk.decode(b"\x00" * 20)  # wrong length for declared count


# Typed columns: same bytes as the list-based reference, typed errors.
_column_values = hyp_st.one_of(
    hyp_st.floats(allow_nan=True, allow_infinity=True),
    hyp_st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                         float("-inf"), 5e-324, 1.7976931348623157e308]),
    hyp_st.integers(-2**53, 2**53),
    hyp_st.booleans(),
)
_column_samples = hyp_st.lists(
    hyp_st.tuples(hyp_st.integers(-2**62, 2**62), _column_values),
    max_size=CHUNK_SIZE, unique_by=lambda sample: sample[0],
).map(lambda samples: sorted(samples, key=lambda sample: sample[0]))


@hyp_given(_column_samples)
@hyp_example([(-2**62, 0.0), (2**62, 0.0)])  # a delta of 2**63
@hyp_settings(max_examples=200, deadline=None)
def test_chunk_bytes_match_the_list_based_reference(samples):
    start_ns = samples[0][0] if samples else 7
    chunk = Chunk(start_ns)
    for time_ns, value in samples:
        chunk.append(time_ns, value)
    assert isinstance(chunk._times, array)  # noqa: SLF001
    assert isinstance(chunk._values, array)  # noqa: SLF001
    encoded = chunk.encode()
    assert encoded == reference_chunk_bytes(
        start_ns, [t for t, _v in samples], [v for _t, v in samples])
    decoded = Chunk.decode(encoded)
    assert decoded.encode() == encoded
    assert isinstance(decoded._times, array)  # noqa: SLF001
    assert repr(list(decoded.samples())) == repr(
        [Sample(t, float(v)) for t, v in samples])


@pytest.mark.parametrize("time_ns, value", [
    (2**63, 1.0), (-2**63 - 1, 1.0), (10**30, 1.0), (1.5, 1.0), ("7", 1.0),
    (None, 1.0), (200, "1.0"), (200, None), (200, [1.0]), (200, 10**400),
])
def test_unstorable_samples_raise_tsdb_error_and_change_nothing(time_ns, value):
    for first in (True, False):
        series = ChunkedSeries()
        if not first:
            series.append(100, 1.0)
        before = list(series.window(-2**63, 2**63 - 1))
        with pytest.raises(TsdbError):
            series.append(time_ns, value)
        assert list(series.window(-2**63, 2**63 - 1)) == before
        for chunk in series._chunks:  # noqa: SLF001
            assert len(chunk._times) == len(chunk._values)  # noqa: SLF001
        series.append(300, 2.0)
        assert series.last_sample() == Sample(300, 2.0)


def test_chunk_decode_rejects_stamps_that_overflow():
    # Two maximal deltas sum past int64: corrupt bytes, not OverflowError.
    data = reference_chunk_bytes(0, [0, 2**62, 2**63 - 2], [0.0, 0.0, 0.0])
    assert Chunk.decode(data).end_ns == 2**63 - 2
    overflowing = bytearray(data)
    overflowing[12 + 8:12 + 16] = (2**63 - 1).to_bytes(8, "little")
    with pytest.raises(TsdbError):
        Chunk.decode(bytes(overflowing))


def test_windows_come_back_as_typed_arrays():
    series = ChunkedSeries()
    for index in range(3 * CHUNK_SIZE):
        series.append(index * 10, index * 0.5)
    times, values = series.window_arrays(15, 20 * CHUNK_SIZE + 5)
    assert isinstance(times, array) and times.typecode == "q"
    assert isinstance(values, array) and values.typecode == "d"
    assert list(times) == [s.time_ns for s in series.window(15, 20 * CHUNK_SIZE + 5)]
    assert list(values) == [s.value for s in series.window(15, 20 * CHUNK_SIZE + 5)]


def test_chunked_series_rolls_over():
    series = ChunkedSeries()
    for index in range(CHUNK_SIZE + 5):
        series.append(index * 10, float(index))
    assert series.chunk_count == 2
    assert series.sample_count == CHUNK_SIZE + 5


def test_chunked_series_window_binary_search():
    series = ChunkedSeries()
    for index in range(300):
        series.append(index * 100, float(index))
    window = series.window(5_000, 5_500)
    assert [s.time_ns for s in window] == [5_000, 5_100, 5_200, 5_300, 5_400, 5_500]


def test_chunked_series_window_bounds_inclusive():
    series = ChunkedSeries()
    series.append(10, 1.0)
    series.append(20, 2.0)
    assert len(series.window(10, 20)) == 2
    assert series.window(11, 19) == []
    with pytest.raises(TsdbError):
        series.window(20, 10)


def test_drop_before_is_chunk_granular():
    series = ChunkedSeries()
    for index in range(CHUNK_SIZE * 2):
        series.append(index, float(index))
    dropped = series.drop_before(CHUNK_SIZE)  # first chunk fully older
    assert dropped == CHUNK_SIZE
    assert series.sample_count == CHUNK_SIZE
    # Cutoff inside the remaining chunk: nothing dropped (partial kept).
    assert series.drop_before(CHUNK_SIZE + 10) == 0


# ---------------------------------------------------------------------------
# Tsdb
# ---------------------------------------------------------------------------
def test_append_and_select():
    tsdb = Tsdb()
    tsdb.append_sample("up", 100, 1.0, job="sme")
    tsdb.append_sample("up", 200, 1.0, job="sme")
    series = tsdb.select_metric("up", 0, 300)
    assert len(series) == 1
    assert [s.value for s in series[0].samples] == [1.0, 1.0]


def test_series_need_metric_name():
    with pytest.raises(TsdbError):
        Tsdb().append(Labels({"job": "x"}), 0, 1.0)


def test_out_of_order_rejected():
    tsdb = Tsdb()
    tsdb.append_sample("m", 100, 1.0)
    with pytest.raises(TsdbError):
        tsdb.append_sample("m", 100, 2.0)


def test_label_filters_and_regex_selection():
    tsdb = Tsdb()
    tsdb.append_sample("syscalls", 1, 10.0, name="read")
    tsdb.append_sample("syscalls", 1, 20.0, name="clock_gettime")
    eq = tsdb.select_metric("syscalls", 0, 10, name="read")
    assert len(eq) == 1 and eq[0].samples[0].value == 10.0
    regex = tsdb.select(
        [Matcher.eq("__name__", "syscalls"), Matcher.regex("name", "clock.*")],
        0, 10,
    )
    assert len(regex) == 1 and regex[0].samples[0].value == 20.0


def test_selection_intersects_postings():
    tsdb = Tsdb()
    tsdb.append_sample("m", 1, 1.0, a="x", b="y")
    tsdb.append_sample("m", 1, 2.0, a="x", b="z")
    result = tsdb.select(
        [Matcher.eq("a", "x"), Matcher.eq("b", "z")], 0, 10
    )
    assert len(result) == 1
    assert result[0].samples[0].value == 2.0


def test_latest():
    tsdb = Tsdb()
    tsdb.append_sample("g", 10, 1.0)
    tsdb.append_sample("g", 20, 5.0)
    latest = tsdb.latest("g")
    assert latest is not None and latest.value == 5.0
    assert tsdb.latest("missing") is None


def test_introspection():
    tsdb = Tsdb()
    tsdb.append_sample("a", 1, 1.0, host="h1")
    tsdb.append_sample("b", 1, 1.0, host="h2")
    assert tsdb.metric_names() == ["a", "b"]
    assert tsdb.label_values("host") == ["h1", "h2"]
    assert tsdb.series_count() == 2
    assert tsdb.sample_count() == 2
    assert tsdb.memory_bytes() > 0


def test_retention_drops_old_chunks_and_dead_series():
    tsdb = Tsdb(retention_ns=1_000)
    for index in range(CHUNK_SIZE):
        tsdb.append_sample("old", index, 1.0)
    tsdb.append_sample("fresh", 1_000_000, 1.0)
    dropped = tsdb.enforce_retention(now_ns=1_000_000)
    assert dropped == CHUNK_SIZE
    assert tsdb.metric_names() == ["fresh"]


def test_select_empty_window_returns_nothing():
    tsdb = Tsdb()
    tsdb.append_sample("m", 100, 1.0)
    assert tsdb.select_metric("m", 200, 300) == []


# ---------------------------------------------------------------------------
# Empty-value equality matchers (Prometheus semantics: `job=""` matches
# series WITHOUT a job label).  These have no postings entry, so the index
# cannot serve them — regression tests for _candidates silently treating
# them as indexed and returning nothing.
# ---------------------------------------------------------------------------
def _empty_matcher_tsdb() -> Tsdb:
    tsdb = Tsdb()
    tsdb.append_sample("m", 1, 1.0, job="ebpf")
    tsdb.append_sample("m", 1, 2.0)  # no job label
    tsdb.append_sample("m", 1, 3.0, job="node")
    return tsdb


def test_empty_value_eq_matcher_selects_unlabelled_series():
    tsdb = _empty_matcher_tsdb()
    result = tsdb.select(
        [Matcher.eq("__name__", "m"), Matcher.eq("job", "")], 0, 10
    )
    assert len(result) == 1
    assert result[0].samples[0].value == 2.0
    assert not result[0].labels.has("job")


def test_empty_value_eq_matcher_alone():
    # No positive matcher at all: must still scan, not return [].
    tsdb = _empty_matcher_tsdb()
    result = tsdb.select([Matcher.eq("job", "")], 0, 10)
    assert [s.samples[0].value for s in result] == [2.0]


def test_empty_value_eq_matcher_excludes_labelled_series():
    tsdb = _empty_matcher_tsdb()
    result = tsdb.select(
        [Matcher.eq("__name__", "m"), Matcher.eq("job", "ebpf")], 0, 10
    )
    assert [s.samples[0].value for s in result] == [1.0]


def test_latest_with_empty_value_matcher():
    tsdb = _empty_matcher_tsdb()
    latest = tsdb.latest("m", job="")
    assert latest is not None and latest.value == 2.0


def test_delete_series_with_empty_value_matcher():
    tsdb = _empty_matcher_tsdb()
    deleted = tsdb.delete_series([Matcher.eq("job", "")])
    assert deleted == 1
    remaining = tsdb.select([Matcher.eq("__name__", "m")], 0, 10)
    assert sorted(s.samples[0].value for s in remaining) == [1.0, 3.0]


def test_delete_series_by_matcher():
    tsdb = Tsdb()
    tsdb.append_sample("m", 1, 1.0, job="good")
    tsdb.append_sample("m", 1, 2.0, job="bad")
    tsdb.append_sample("other", 1, 3.0, job="bad")
    deleted = tsdb.delete_series([Matcher.eq("job", "bad")])
    assert deleted == 2
    assert tsdb.series_count() == 1
    assert tsdb.label_values("job") == ["good"]
    # The survivors are still selectable.
    assert tsdb.select_metric("m", 0, 10, job="good")


def test_delete_series_no_match_is_zero():
    tsdb = Tsdb()
    tsdb.append_sample("m", 1, 1.0)
    assert tsdb.delete_series([Matcher.eq("job", "nope")]) == 0
    assert tsdb.series_count() == 1


def test_deleted_series_can_be_re_ingested_fresh():
    tsdb = Tsdb()
    tsdb.append_sample("m", 100, 1.0)
    tsdb.delete_series([Matcher.eq("__name__", "m")])
    # Re-ingest at an *earlier* timestamp: legal, the series is gone.
    tsdb.append_sample("m", 50, 9.0)
    assert tsdb.latest("m").value == 9.0


# ---------------------------------------------------------------------------
# Postings-index consistency under interleaved mutation
# ---------------------------------------------------------------------------
def _postings_rebuilt(tsdb):
    """What the inverted index *should* contain, rebuilt from scratch."""
    expected = {}
    for labels in tsdb._series:  # noqa: SLF001
        for pair in labels.items():
            expected.setdefault(pair, set()).add(labels)
    return expected


def _assert_index_consistent(tsdb):
    assert tsdb._postings == _postings_rebuilt(tsdb)  # noqa: SLF001


@hyp_given(hyp_st.lists(
    hyp_st.one_of(
        # (op, series index, timestamp bucket)
        hyp_st.tuples(hyp_st.just("append"), hyp_st.integers(0, 5),
                      hyp_st.integers(1, 40)),
        hyp_st.tuples(hyp_st.just("delete"), hyp_st.integers(0, 5),
                      hyp_st.just(0)),
        hyp_st.tuples(hyp_st.just("retention"), hyp_st.just(0),
                      hyp_st.integers(1, 40)),
    ),
    min_size=1, max_size=60,
))
@hyp_settings(max_examples=60, deadline=None)
def test_postings_match_series_under_interleaved_mutation(ops):
    """delete_series / enforce_retention / re-append of a deleted label
    set must leave the inverted index exactly matching the live series —
    no stale postings, no missing ones, no empty sets left behind."""
    tsdb = Tsdb(retention_ns=10_000)
    # Per-series high-water marks so re-appends after a delete can reuse
    # the label set with fresh timestamps (appends are in-order only).
    clock = {}
    for op, index, arg in ops:
        name = f"m{index % 3}"
        labels = Labels.of(name, job=f"j{index % 2}", idx=str(index))
        if op == "append":
            t = clock.get(labels, 0) + arg * 500
            clock[labels] = t
            tsdb.append(labels, t, float(arg))
        elif op == "delete":
            tsdb.delete_series([Matcher.eq("idx", str(index))])
        else:
            tsdb.enforce_retention(now_ns=arg * 1_000)
        _assert_index_consistent(tsdb)
    # No posting set may be empty, and selection through the index must
    # agree with a full scan.
    assert all(tsdb._postings.values())  # noqa: SLF001
    for labels in list(tsdb._series):  # noqa: SLF001
        matchers = [Matcher.eq(k, v) for k, v in labels.items()]
        assert [s.labels for s in tsdb.select(matchers, 0, 10**18)] == [labels]
