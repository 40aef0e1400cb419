"""OpenMetrics types, registry, encoder and parser tests."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OpenMetricsError
from repro.openmetrics import (
    CollectorRegistry,
    Counter,
    Gauge,
    Histogram,
    Summary,
    encode_registry,
    parse_exposition,
)
from tests.codec_oracle import reference_encode_registry


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
def test_counter_monotonic():
    counter = Counter("requests_total", "Requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(OpenMetricsError):
        counter.inc(-1)


def test_counter_set_to_cannot_decrease():
    child = Counter("c_total", "c").labels()
    child.set_to(10)
    child.set_to(10)
    with pytest.raises(OpenMetricsError):
        child.set_to(9)


def test_gauge_goes_both_ways():
    gauge = Gauge("temp", "Temperature")
    gauge.set_to(5)
    gauge.labels().dec(2)
    gauge.labels().inc(1)
    assert gauge.value == 4


def test_invalid_metric_name_rejected():
    with pytest.raises(OpenMetricsError):
        Counter("1bad", "x")
    with pytest.raises(OpenMetricsError):
        Counter("has space", "x")


def test_invalid_label_names_rejected():
    with pytest.raises(OpenMetricsError):
        Counter("x", "x", ["__reserved"])
    with pytest.raises(OpenMetricsError):
        Counter("x", "x", ["a", "a"])


def test_labels_positional_and_keyword_equivalent():
    counter = Counter("x_total", "x", ["a", "b"])
    assert counter.labels("1", "2") is counter.labels(b="2", a="1")


def test_labels_arity_checked():
    counter = Counter("x_total", "x", ["a", "b"])
    with pytest.raises(OpenMetricsError):
        counter.labels("only-one")
    with pytest.raises(OpenMetricsError):
        counter.labels(a="1", c="2")
    with pytest.raises(OpenMetricsError):
        counter.labels("1", a="1")


def test_distinct_label_values_distinct_children():
    counter = Counter("x_total", "x", ["name"])
    counter.labels("read").inc(3)
    counter.labels("write").inc(5)
    assert counter.labels("read").value == 3
    assert counter.labels("write").value == 5


def test_histogram_buckets_cumulative():
    histogram = Histogram("lat", "Latency", buckets=(1.0, 5.0, 10.0))
    for value in (0.5, 0.7, 3.0, 20.0):
        histogram.observe(value)
    child = histogram.labels()
    buckets = dict(child.cumulative_buckets())
    assert buckets[1.0] == 2
    assert buckets[5.0] == 3
    assert buckets[10.0] == 3
    assert buckets[float("inf")] == 4
    assert child.count == 4
    assert child.sum == pytest.approx(24.2)


def test_histogram_unordered_buckets_rejected():
    with pytest.raises(OpenMetricsError):
        Histogram("h", "h", buckets=(5.0, 1.0))
    with pytest.raises(OpenMetricsError):
        Histogram("h", "h", buckets=(1.0, 1.0))


def test_summary_quantiles_ordered():
    summary = Summary("s", "s", quantiles=(0.5, 0.9))
    for value in range(100):
        summary.observe(float(value))
    child = summary.labels()
    estimates = dict(child.quantile_values())
    assert 45 <= estimates[0.5] <= 55
    assert 85 <= estimates[0.9] <= 95
    assert child.count == 100


def test_summary_bad_quantile_rejected():
    with pytest.raises(OpenMetricsError):
        Summary("s", "s", quantiles=(1.5,))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_duplicate_rejected():
    registry = CollectorRegistry()
    registry.counter("a_total", "a")
    with pytest.raises(OpenMetricsError):
        registry.counter("a_total", "again")


def test_registry_lookup_and_unregister():
    registry = CollectorRegistry()
    family = registry.gauge("g", "g")
    assert registry.get("g") is family
    registry.unregister("g")
    with pytest.raises(OpenMetricsError):
        registry.get("g")


def test_collect_callbacks_refresh_values():
    registry = CollectorRegistry()
    gauge = registry.gauge("live", "live")
    state = {"v": 1.0}
    registry.on_collect(lambda: gauge.set_to(state["v"]))
    encode_registry(registry)
    state["v"] = 9.0
    text = encode_registry(registry)
    assert "live 9" in text


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------
def test_encode_has_help_type_and_eof():
    registry = CollectorRegistry()
    registry.counter("x_total", "The X").inc(2)
    text = encode_registry(registry)
    assert "# HELP x_total The X" in text
    assert "# TYPE x_total counter" in text
    assert "x_total 2" in text
    assert text.rstrip().endswith("# EOF")


def test_encode_labels_and_escaping():
    registry = CollectorRegistry()
    counter = registry.counter("x_total", "x", ["path"])
    counter.labels('we"ird\\path').inc()
    text = encode_registry(registry)
    assert 'path="we\\"ird\\\\path"' in text


def test_encode_histogram_le_labels():
    registry = CollectorRegistry()
    histogram = registry.histogram("h", "h", buckets=(1.0,))
    histogram.observe(0.5)
    text = encode_registry(registry)
    assert 'h_bucket{le="1"} 1' in text
    assert 'h_bucket{le="+Inf"} 1' in text
    assert "h_sum 0.5" in text
    assert "h_count 1" in text


# ---------------------------------------------------------------------------
# Parser (and roundtrip)
# ---------------------------------------------------------------------------
def test_parse_simple_sample():
    samples = parse_exposition("x_total 5\n# EOF\n")
    assert len(samples) == 1
    assert samples[0].name == "x_total"
    assert samples[0].value == 5.0
    assert samples[0].labels == ()


def test_parse_labelled_sample():
    samples = parse_exposition('x_total{a="1",b="two words"} 5\n')
    assert samples[0].labels_dict() == {"a": "1", "b": "two words"}


def test_parse_escaped_label_values():
    samples = parse_exposition('x{p="a\\"b\\\\c"} 1\n')
    assert samples[0].labels_dict()["p"] == 'a"b\\c'


def test_parse_special_values():
    samples = parse_exposition("a +Inf\nb -Inf\nc NaN\n")
    assert samples[0].value == float("inf")
    assert samples[1].value == float("-inf")
    assert math.isnan(samples[2].value)


def test_parse_rejects_malformed():
    with pytest.raises(OpenMetricsError):
        parse_exposition("justaname\n")
    with pytest.raises(OpenMetricsError):
        parse_exposition('x{a="unterminated} 5\n')
    with pytest.raises(OpenMetricsError):
        parse_exposition("x notanumber\n")


def test_roundtrip_encode_parse():
    registry = CollectorRegistry()
    counter = registry.counter("syscalls_total", "s", ["name"])
    counter.labels("read").inc(100)
    counter.labels("clock_gettime").inc(370_000)
    gauge = registry.gauge("free_pages", "f")
    gauge.set_to(24_064)
    samples = parse_exposition(encode_registry(registry))
    by_key = {
        (s.name, s.labels_dict().get("name")): s.value for s in samples
    }
    assert by_key[("syscalls_total", "read")] == 100
    assert by_key[("syscalls_total", "clock_gettime")] == 370_000
    assert by_key[("free_pages", None)] == 24_064


# ---------------------------------------------------------------------------
# Exemplars
# ---------------------------------------------------------------------------
def test_exemplar_of_keeps_label_order():
    from repro.openmetrics import Exemplar

    exemplar = Exemplar.of(0.25, timestamp_s=12.5,
                           trace_id="a" * 32, span_id="b" * 16)
    assert exemplar.labels == (("trace_id", "a" * 32), ("span_id", "b" * 16))
    assert exemplar.labels_dict()["span_id"] == "b" * 16


def test_counter_encodes_latest_exemplar():
    from repro.openmetrics import Exemplar

    registry = CollectorRegistry()
    counter = registry.counter("hits_total", "h")
    counter.inc(1, exemplar=Exemplar.of(1.0, trace_id="1" * 32))
    counter.inc(2, exemplar=Exemplar.of(2.0, timestamp_s=7.0,
                                        trace_id="2" * 32))
    text = encode_registry(registry)
    assert 'hits_total 3 # {trace_id="2222' in text
    assert text.count("#" + " {") == 1  # only the latest exemplar


def test_histogram_keeps_one_exemplar_per_bucket():
    from repro.openmetrics import Exemplar

    registry = CollectorRegistry()
    histogram = registry.histogram("lat_seconds", "l", buckets=[0.1, 1.0])
    histogram.observe(0.05, exemplar=Exemplar.of(0.05, trace_id="a" * 32))
    histogram.observe(0.5, exemplar=Exemplar.of(0.5, trace_id="b" * 32))
    histogram.observe(5.0, exemplar=Exemplar.of(5.0, trace_id="c" * 32))
    lines = encode_registry(registry).splitlines()
    bucket_lines = [l for l in lines if "_bucket" in l]
    assert len(bucket_lines) == 3
    assert all("# {" in l for l in bucket_lines)
    assert 'le="+Inf"' in bucket_lines[-1] and '"cccc' in bucket_lines[-1]


def test_exemplar_round_trip_through_parser():
    from repro.openmetrics import Exemplar

    registry = CollectorRegistry()
    counter = registry.counter("hits_total", "h", ["path"])
    counter.labels("/a").inc(
        3, exemplar=Exemplar.of(3.0, timestamp_s=1.5,
                                trace_id="a" * 32, span_id="b" * 16)
    )
    counter.labels("/b").inc(1)  # no exemplar
    samples = parse_exposition(encode_registry(registry))
    by_path = {s.labels_dict().get("path"): s for s in samples
               if s.name == "hits_total"}
    parsed = by_path["/a"].exemplar
    assert parsed is not None
    assert parsed.value == 3.0
    assert parsed.timestamp_s == 1.5
    assert parsed.labels_dict() == {"trace_id": "a" * 32, "span_id": "b" * 16}
    assert by_path["/b"].exemplar is None


def test_exemplar_less_lines_stay_byte_identical():
    # The exemplar suffix must be strictly additive: a registry without
    # exemplars encodes exactly as it did before exemplar support.
    registry = CollectorRegistry()
    counter = registry.counter("syscalls_total", "s", ["name"])
    counter.labels("read").inc(100)
    registry.gauge("free_pages", "f").set_to(24_064)
    histogram = registry.histogram("lat_seconds", "l", buckets=[0.1, 1.0])
    histogram.observe(0.05)
    text = encode_registry(registry)
    assert "#" not in text.replace("# HELP", "").replace("# TYPE", "") \
        .replace("# EOF", "")
    assert 'syscalls_total{name="read"} 100\n' in text
    assert "free_pages 24064\n" in text
    assert 'lat_seconds_bucket{le="0.1"} 1\n' in text


def test_parser_handles_exemplar_on_unlabelled_sample():
    samples = parse_exposition(
        'hits_total 5 # {trace_id="ab"} 5 12.5\n# EOF\n'
    )
    assert samples[0].value == 5
    assert samples[0].exemplar.labels_dict() == {"trace_id": "ab"}
    assert samples[0].exemplar.value == 5
    assert samples[0].exemplar.timestamp_s == 12.5


def test_parser_rejects_malformed_exemplar():
    with pytest.raises(OpenMetricsError):
        parse_exposition("hits_total 5 # not-braces 5\n")
    with pytest.raises(OpenMetricsError):
        parse_exposition('hits_total 5 # {trace_id="ab"}\n')


def test_label_value_containing_hash_is_not_an_exemplar():
    registry = CollectorRegistry()
    counter = registry.counter("hits_total", "h", ["path"])
    counter.labels("/a#frag").inc(2)
    samples = parse_exposition(encode_registry(registry))
    sample = next(s for s in samples if s.name == "hits_total")
    assert sample.labels_dict()["path"] == "/a#frag"
    assert sample.exemplar is None
    assert sample.value == 2


# ---------------------------------------------------------------------------
# Bugfix: one timestamp rule for both sample-line forms
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("line", [
    "foo 1 1234", 'foo{a="b"} 1 1234', 'foo{a="b"} 1\t1234.5',
    'foo{a="b"} 1 1234 # {trace_id="ab"} 1',
])
def test_a_timestamp_is_validated_and_discarded_in_both_forms(line):
    (sample,) = parse_exposition(line + "\n")
    assert (sample.name, sample.value) == ("foo", 1.0)


@pytest.mark.parametrize("line", [
    "foo 1 2 3", "foo 1 2 3 4 garbage", 'foo{a="b"} 1 2 3',
    "foo 1 soon", 'foo{a="b"} 1 soon', 'foo{a="b"}', 'foo{a="b"} ',
])
def test_anything_but_value_and_numeric_timestamp_is_rejected(line):
    with pytest.raises(OpenMetricsError):
        parse_exposition(line + "\n")
    table = {}
    parse_exposition("foo 1\n" 'foo{a="b"} 1\n', table)
    with pytest.raises(OpenMetricsError):
        parse_exposition(line + "\n", table)


# ---------------------------------------------------------------------------
# The per-target series memo: a fast exit inside the one parser
# ---------------------------------------------------------------------------
def _parsed(body, table=None):
    """A NaN-safe, comparable outcome of one parse: samples or error."""
    try:
        return "ok", repr(parse_exposition(body, table))
    except OpenMetricsError as exc:
        return "error", str(exc)


#: Label values chosen to break a prefix memo that cut lines carelessly.
_NASTY_VALUES = [
    "", "plain", "}", "} ", "} 5", '"', "\\", '\\"', "#", " # ", "=", ",",
    "a b", " lead", "trail ", "é日本", "x\u2028y", "{", '"} 1', "a=\"b\"",
]
_label_values = st.one_of(
    st.sampled_from(_NASTY_VALUES),
    st.text(alphabet=st.sampled_from(list(' }{"\\#=,\tab5é')), max_size=6),
)
_series = st.tuples(
    st.sampled_from(["m", "m_total", "mm", "a:b", "na", "1", "infinit"]),
    st.lists(st.tuples(st.sampled_from(["a", "b", "le"]), _label_values),
             max_size=3, unique_by=lambda pair: pair[0]),
)
_value_texts = st.sampled_from(
    ["0", "1", "-1", "2.5", "1e3", "+Inf", "-Inf", "NaN", "nan", "1_0",
     "٣", "0x10", "", "1 2", "abc"])


def _escape(value):
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _line(draw, series):
    """One exposition line in any of the shapes an exporter (or a broken
    one) may write: short form, timestamped, with an exemplar, tab- or
    CR-decorated, padded, a comment, blank."""
    name, labels = draw(series)
    head = name
    if labels:
        head += "{" + ",".join(
            f'{key}="{_escape(value)}"' for key, value in labels) + "}"
    value = draw(_value_texts)
    shape = draw(st.integers(0, 12))
    if shape <= 4:
        return f"{head} {value}"
    return [
        f"{head}{value}",
        f"{head} {value} 1234",
        f'{head} {value} # {{trace_id="ab"}} 1 2.5',
        f"{head}\t{value}",
        f"{head} {value}\r",
        f"  {head} {value}  ",
        f"# HELP {name} about {value}",
        "",
    ][shape - 5]


@st.composite
def _scrapes(draw):
    """Successive expositions of one target: mostly the same few series
    again (so the memo is hit), now and then a new one."""
    pool = st.sampled_from(draw(st.lists(_series, min_size=1, max_size=4)))
    series = st.one_of(pool, pool, pool, _series)
    return [
        "\n".join(_line(draw, series)
                  for _ in range(draw(st.integers(0, 8)))) + "\n"
        for _ in range(draw(st.integers(1, 5)))
    ]


@given(_scrapes())
@settings(max_examples=300, deadline=None)
def test_warm_parse_equals_cold_parse(bodies):
    table = {}
    for body in bodies:
        before = dict(table)
        cold = _parsed(body)
        assert _parsed(body, table) == cold
        if cold[0] == "error":
            assert table == before  # a body that raises teaches nothing
        else:
            # Exactly this body's series, each parsed the way a cold
            # parse of its own prefix would.
            samples = parse_exposition(body)
            assert sorted(table.values()) == sorted(
                {(s.name, s.labels) for s in samples})
            for prefix, entry in table.items():
                (alone,) = parse_exposition(prefix + " 1\n")
                assert (alone.name, alone.labels) == entry


def test_steady_state_lines_reuse_the_learned_labels_object():
    body = 'm{a="x y",b="}"} 1\nn 2\n# EOF\n'
    table = {}
    first = parse_exposition(body, table)
    assert set(table) == {'m{a="x y",b="}"}', "n"}
    second = parse_exposition(body.replace(" 1", " 7"), table)
    assert [s.value for s in second] == [7.0, 2.0]
    assert all(a.labels is b.labels for a, b in zip(first, second))


def test_a_line_without_a_separator_never_matches_a_shorter_name():
    # "nan" is not the series "na" with the value "n"; "12" is not the
    # series "1" with the value 2.
    table = {}
    parse_exposition("na 1\n1 5\ninfinit 2\n", table)
    for body in ("nan\n", "12\n", "infinity\n", "1\n"):
        assert _parsed(body, dict(table)) == _parsed(body)
        assert _parsed(body)[0] == "error"


_MEMOISED = ['m{a="x y",b="}"} 12.5', "m 12.5", 'm{a="\\"} 1"} 3']


@pytest.mark.parametrize("line", _MEMOISED)
def test_every_truncation_and_bit_flip_of_a_memoised_line(line):
    table = {}
    parse_exposition(line + "\n", table)
    learned = dict(table)
    damaged = [line[:cut] for cut in range(len(line))]
    damaged += [
        line[:index] + chr(ord(char) ^ (1 << bit)) + line[index + 1:]
        for index, char in enumerate(line) for bit in range(8)
    ]
    for text in damaged:
        for body in (text + "\n", line + "\n" + text + "\n"):
            warm_table = dict(learned)
            assert _parsed(body, warm_table) == _parsed(body), text
            if _parsed(body)[0] == "error":
                assert warm_table == learned


def test_the_memo_never_outgrows_the_latest_exposition():
    # The Stress-SGX "grow the input every round" stressor, turned on
    # the scraper's own memo: a target that renames every series on
    # every scrape must not be remembered forever.
    table = {}
    for round_no in range(50):
        lines = [f'm{{gen="{round_no}",i="{i}"}} {i}' for i in range(20)]
        parse_exposition("\n".join(lines) + "\n", table)
        assert len(table) == 20
    parse_exposition("only 1\n", table)
    assert set(table) == {"only"}
    parse_exposition("# EOF\n", table)
    assert table == {}


# ---------------------------------------------------------------------------
# The encoder's per-family memo: headers and line prefixes rendered once
# ---------------------------------------------------------------------------
def test_memoised_exposition_is_byte_identical_to_the_reference():
    from repro.openmetrics import Exemplar
    registry = CollectorRegistry()
    counter = registry.counter("c_total", 'help "text"', ["name", "kind"])
    gauge = registry.gauge("g", "g")
    histogram = registry.histogram("h_seconds", "h", ["op"], buckets=[0.1, 1.0])
    summary = registry.summary("s_seconds", "s", ["op"])
    bare_histogram = registry.histogram("hb", "hb")

    def check():
        assert encode_registry(registry) == reference_encode_registry(registry)

    check()  # zero-valued, label-less children only
    for round_no in range(4):
        counter.labels("read", 'q"uo\\te\n').inc(round_no + 0.5)
        counter.labels(f"sys{round_no}", "}").inc(
            3, exemplar=Exemplar.of(1.5, 12.5, trace_id="ab", span_id='c"d'))
        gauge.set_to(float("inf") if round_no == 2 else -round_no / 3)
        histogram.labels("get").observe(
            0.05 * (round_no + 1), exemplar=Exemplar.of(0.05, trace_id="t"))
        histogram.labels(f"op{round_no}").observe(5.0)
        summary.labels("get").observe(float(round_no))
        summary.labels(f"new{round_no}")  # quantiles still NaN: skipped
        bare_histogram.observe(0.3)
        check()
        check()  # a second scrape with nothing changed
    counter.clear()
    histogram.clear()
    assert counter.rendered == {} and histogram.rendered == {}
    counter.labels("read", "after-restart").inc()
    check()
