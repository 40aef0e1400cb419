"""Parse OpenMetrics exposition text into samples.

This is the aggregator's ingest path: the scrape manager GETs an
exporter's endpoint and feeds the body through :func:`parse_exposition`,
getting back flat :class:`ParsedSample` records (name, labels, value,
optional exemplar) that the TSDB appends with the scrape timestamp.

A sample line is ``name[{labels}] value [timestamp] [# exemplar]``.
Exemplars follow the OpenMetrics ``# {trace_id="…",span_id="…"} value ts``
syntax after the sample value; samples without one parse exactly as
before (``exemplar`` is None).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import OpenMetricsError
from repro.openmetrics.types import Exemplar


class ParsedSample(NamedTuple):
    """One sample line from an exposition.

    A ``NamedTuple`` rather than a frozen dataclass, like
    :class:`repro.pmag.model.Sample`: one is built per line of every
    scrape, and tuple construction is a third of the cost of four
    guarded ``object.__setattr__`` calls.
    """

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float
    exemplar: Optional[Exemplar] = None

    def labels_dict(self) -> Dict[str, str]:
        """Labels as a dict."""
        return dict(self.labels)


def _parse_value(text: str) -> float:
    text = text.strip()
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text.lower() == "nan":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise OpenMetricsError(f"bad sample value: {text!r}") from None


def _parse_labels(text: str, line_no: int) -> Tuple[Tuple[str, str], ...]:
    labels: List[Tuple[str, str]] = []
    index = 0
    length = len(text)
    while index < length:
        eq = text.find("=", index)
        if eq < 0:
            raise OpenMetricsError(f"line {line_no}: malformed labels near {text[index:]!r}")
        name = text[index:eq].strip().strip(",").strip()
        if not name:
            raise OpenMetricsError(f"line {line_no}: empty label name")
        if eq + 1 >= length or text[eq + 1] != '"':
            raise OpenMetricsError(f"line {line_no}: label value must be quoted")
        # Scan the quoted value honouring escapes.
        value_chars: List[str] = []
        cursor = eq + 2
        while cursor < length:
            char = text[cursor]
            if char == "\\" and cursor + 1 < length:
                escape = text[cursor + 1]
                value_chars.append({"n": "\n", '"': '"', "\\": "\\"}.get(escape, escape))
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        else:
            raise OpenMetricsError(f"line {line_no}: unterminated label value")
        labels.append((name, "".join(value_chars)))
        index = cursor + 1
        while index < length and text[index] in ", ":
            index += 1
    return tuple(labels)


def _find_closing_brace(text: str, line_no: int) -> int:
    """Index of the label set's closing brace, honouring quoted values."""
    in_quotes = False
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char == "\\" and in_quotes:
            index += 2
            continue
        if char == '"':
            in_quotes = not in_quotes
        elif char == "}" and not in_quotes:
            return index
        index += 1
    raise OpenMetricsError(f"line {line_no}: unterminated label set")


def _parse_exemplar(text: str, line_no: int) -> Exemplar:
    """Parse the part after the exemplar's ``#``: ``{labels} value [ts]``."""
    text = text.strip()
    if not text.startswith("{"):
        raise OpenMetricsError(
            f"line {line_no}: exemplar must start with a label set"
        )
    rest = text[1:]
    close = _find_closing_brace(rest, line_no)
    labels = _parse_labels(rest[:close], line_no)
    pieces = rest[close + 1:].split()
    if not pieces:
        raise OpenMetricsError(f"line {line_no}: exemplar missing a value")
    value = _parse_value(pieces[0])
    timestamp_s = _parse_value(pieces[1]) if len(pieces) > 1 else None
    return Exemplar(labels=labels, value=value, timestamp_s=timestamp_s)


#: ``line prefix -> (name, labels)``: see :func:`parse_exposition`.
SeriesTable = Dict[str, Tuple[str, Tuple[Tuple[str, str], ...]]]


def _parse_sample_line(
    line: str, line_no: int, learned: SeriesTable
) -> ParsedSample:
    """The full parser, for one stripped non-comment line.

    Records in ``learned`` the exact text it read the series from: the
    line through the closing brace it found, or the bare name.
    """
    # A label set starts immediately after the metric name (before any
    # space); a "{" later in the line belongs to an exemplar.
    brace = line.find("{")
    space = line.find(" ")
    labelled = brace >= 0 and (space < 0 or brace < space)
    if labelled:
        close = brace + 1 + _find_closing_brace(line[brace + 1:], line_no)
        prefix = line[:close + 1]
        name = line[:brace].strip()
        labels = _parse_labels(line[brace + 1:close], line_no)
        rest = line[close + 1:]
    else:
        labels = ()
        rest = line  # the name is its first field
    value_text, hash_mark, exemplar_text = rest.partition("#")
    exemplar = _parse_exemplar(exemplar_text, line_no) if hash_mark else None
    fields = value_text.split()
    if not labelled:
        if len(fields) < 2:
            raise OpenMetricsError(f"line {line_no}: malformed sample: {line!r}")
        prefix = name = fields.pop(0)
    # One rule for both forms: ``value [timestamp]``.  The timestamp must
    # be a number and is then dropped (the scrape stamps its own).
    if len(fields) > 2:
        raise OpenMetricsError(
            f"line {line_no}: text after the timestamp: {line!r}"
        )
    value = _parse_value(fields[0] if fields else "")
    if len(fields) == 2:
        _parse_value(fields[1])
    if not name:
        raise OpenMetricsError(f"line {line_no}: empty metric name")
    learned[prefix] = (name, labels)
    return ParsedSample(name, labels, value, exemplar)


def parse_exposition(
    body: str, series: Optional[SeriesTable] = None
) -> List[ParsedSample]:
    """Parse exposition text; comments and the EOF marker are skipped.

    ``series`` is a caller-owned memo for a target that is scraped again
    and again: ``line prefix -> (name, labels)``, written only by the
    full parser, keyed by the exact text it read the series from.  A
    later line that is ``<known prefix> <one float>`` *is* that parse —
    the scan for the closing brace is deterministic on those characters
    — so it costs one ``rpartition``, one dict hit and one ``float()``, and
    yields the very same ``labels`` tuple.  Everything else (an unknown
    prefix, an exemplar, a timestamp, tabs, padding) takes the full
    parser, so there is one grammar, not two.

    On return the table holds exactly the prefixes of this body's sample
    lines: it never outgrows the target's latest exposition.  A body
    that raises leaves it untouched.
    """
    samples: List[ParsedSample] = []
    known = series.get if series is not None else {}.get
    seen: SeriesTable = {}
    # Split on "\n" only: splitlines() would also split on exotic Unicode
    # line breaks (\x1e, \u2028, ...) that may appear inside label values.
    for line_no, raw_line in enumerate(body.split("\n"), start=1):
        prefix, _, value_text = raw_line.rpartition(" ")
        entry = known(prefix)
        if entry is not None:
            try:
                value = float(value_text)
            except ValueError:
                pass  # "+Inf # {…} 1", a timestamp, …: not the short form
            else:
                seen[prefix] = entry
                samples.append(ParsedSample(entry[0], entry[1], value))
                continue
        line = raw_line.strip()
        if line and not line.startswith("#"):
            samples.append(_parse_sample_line(line, line_no, seen))
    if series is not None:
        series.clear()
        series.update(seen)
    return samples
