"""Reading results back at a workload's sink: digests and comparisons."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, List, Sequence


def close(actual: float, expected: float) -> bool:
    """Equal up to float re-association in sums across series."""
    return math.isclose(actual, expected, rel_tol=1e-9, abs_tol=1e-9)


def vector_rows(vector: Iterable) -> List[list]:
    """An instant vector as sorted ``[labels, value]`` rows of text."""
    return sorted(
        [repr(labels), repr(float(value))] for labels, value in vector
    )


def series_rows(series_list: Iterable) -> List[list]:
    """A range result as sorted ``[labels, [[time_ns, value], ...]]``."""
    return sorted(
        [repr(series.labels),
         [[sample.time_ns, repr(float(sample.value))]
          for sample in series.samples]]
        for series in series_list
    )


def digest_of(*parts) -> str:
    """Short stable hash of JSON-serialisable parts."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sink_digest(tsdb, engine, now_ns: int, queries: Sequence[str]) -> str:
    """Same-seed determinism digest: series and sample counts plus a
    hash over a fixed instant-query set evaluated at ``now_ns``."""
    return digest_of(
        tsdb.series_count(), tsdb.sample_count(),
        [vector_rows(engine.instant(query, now_ns)) for query in queries],
    )
