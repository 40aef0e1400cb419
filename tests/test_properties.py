"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.maps import HashMap
from repro.openmetrics import CollectorRegistry, encode_registry, parse_exposition
from repro.pmag.chunks import Chunk, ChunkedSeries
from repro.pmag.model import Labels, Matcher
from repro.pmag.query.functions import quantile_of
from repro.pmag.tsdb import Tsdb
from repro.pman.boxplot import BoxPlot
from repro.simkernel.clock import VirtualClock
from repro.simkernel.rng import DeterministicRng


# ---------------------------------------------------------------------------
# Clock
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=50))
def test_clock_time_is_monotone_under_any_advances(deltas):
    clock = VirtualClock()
    previous = clock.now_ns
    for delta in deltas:
        clock.advance(delta)
        assert clock.now_ns >= previous
        previous = clock.now_ns
    assert clock.now_ns == sum(deltas)


@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=30))
def test_clock_fires_every_scheduled_callback_exactly_once(deadlines):
    clock = VirtualClock()
    fired = []
    for deadline in deadlines:
        clock.call_at(deadline, lambda d=deadline: fired.append(d))
    clock.advance(max(deadlines))
    assert sorted(fired) == sorted(deadlines)
    assert fired == sorted(fired)  # chronological delivery


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_rng_forks_reproducible(seed, name):
    a = DeterministicRng(seed).fork(name)
    b = DeterministicRng(seed).fork(name)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
def test_binomial_always_in_range(n, p, seed):
    value = DeterministicRng(seed).binomial(n, p)
    assert 0 <= value <= n


# ---------------------------------------------------------------------------
# BPF maps
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 100), st.integers(-1000, 1000)),
                max_size=100))
def test_hashmap_add_matches_reference_dict(operations):
    bpf_map = HashMap("m", max_entries=101)
    reference = {}
    for key, delta in operations:
        bpf_map.add(key, delta)
        reference[key] = reference.get(key, 0) + delta
    assert dict(bpf_map.items()) == dict(sorted(reference.items()))


# ---------------------------------------------------------------------------
# OpenMetrics roundtrip
# ---------------------------------------------------------------------------
_label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    min_size=0, max_size=20,
)


@given(st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    st.tuples(_label_values, st.floats(allow_nan=False, allow_infinity=False,
                                       width=32)),
    max_size=8,
))
@settings(max_examples=50)
def test_exposition_roundtrip_preserves_samples(metrics):
    registry = CollectorRegistry()
    family = registry.gauge("probe", "p", ["tag"])
    expected = {}
    for name, (tag, value) in metrics.items():
        family.labels(tag).set_to(value)
        expected[tag] = value
    samples = parse_exposition(encode_registry(registry))
    parsed = {
        s.labels_dict()["tag"]: s.value
        for s in samples if s.name == "probe" and "tag" in s.labels_dict()
    }
    for tag, value in expected.items():
        assert math.isclose(parsed[tag], value, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Chunks and TSDB
# ---------------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(1, 10**6),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=200))
def test_chunked_series_windows_match_flat_list(points):
    # Build strictly increasing timestamps from positive deltas.
    series = ChunkedSeries()
    flat = []
    t = 0
    for delta, value in points:
        t += delta
        series.append(t, value)
        flat.append((t, value))
    assert series.sample_count == len(flat)
    # Any window returns exactly the flat-list slice.
    lo = flat[len(flat) // 3][0]
    hi = flat[2 * len(flat) // 3][0]
    window = [(s.time_ns, s.value) for s in series.window(lo, hi)]
    assert window == [(t, v) for t, v in flat if lo <= t <= hi]


@given(st.lists(st.tuples(st.integers(1, 1000),
                          st.floats(-1e9, 1e9, allow_nan=False)),
                min_size=2, max_size=100))
def test_chunk_encode_decode_identity(points):
    chunk_points = []
    t = 0
    for delta, value in points[:100]:
        t += delta
        chunk_points.append((t, value))
    chunk = Chunk(start_ns=chunk_points[0][0])
    count = 0
    for timestamp, value in chunk_points:
        if chunk.full:
            break
        chunk.append(timestamp, value)
        count += 1
    decoded = Chunk.decode(chunk.encode())
    assert list(decoded.samples()) == list(chunk.samples())


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
def test_tsdb_select_returns_only_matching_series(names):
    tsdb = Tsdb()
    counts = {}
    for index, name in enumerate(names):
        counts[name] = counts.get(name, 0) + 1
        tsdb.append_sample("m", index + 1, 1.0, tag=name, idx=str(index))
    for name, count in counts.items():
        selected = tsdb.select([Matcher.eq("tag", name)], 0, len(names) + 1)
        assert len(selected) == count
        assert all(s.labels.get("tag") == name for s in selected)


# ---------------------------------------------------------------------------
# Quantiles and box plots
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200),
       st.floats(0.0, 1.0))
def test_quantile_bounded_by_extremes(values, quantile):
    result = quantile_of(list(values), quantile)
    assert min(values) <= result <= max(values)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200))
def test_boxplot_invariants(values):
    box = BoxPlot.from_values(values)
    assert box.minimum <= box.q1 <= box.median <= box.q3 <= box.maximum
    assert box.whisker_low >= box.minimum
    assert box.whisker_high <= box.maximum
    assert box.count == len(values)
    # Every outlier lies outside the whiskers.
    for outlier in box.outliers:
        assert outlier < box.whisker_low or outlier > box.whisker_high


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.from_regex(r"[a-z]{1,8}", fullmatch=True),
                       st.text(max_size=10), max_size=6))
def test_labels_equality_is_content_based(mapping):
    a = Labels(mapping)
    b = Labels(dict(reversed(list(mapping.items()))))
    assert a == b and hash(a) == hash(b)


@given(st.dictionaries(st.from_regex(r"[a-z]{1,8}", fullmatch=True),
                       st.text(max_size=10), min_size=1, max_size=6))
def test_labels_without_removes_exactly(mapping):
    labels = Labels(mapping)
    victim = sorted(mapping)[0]
    reduced = labels.without(victim)
    assert not reduced.has(victim)
    assert len(reduced.items()) == len(mapping) - 1
