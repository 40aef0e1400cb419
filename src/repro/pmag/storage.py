"""Series routing: the stable fingerprint WAL partitions split by.

There is one storage engine, :class:`~repro.pmag.tsdb.Tsdb`: one index
over every series.  ``TeemonConfig.storage_shards`` partitions its
write-ahead log (:class:`repro.pmag.wal.ShardedWal`), and
:func:`shard_for` says which partition logs a series.  It routes by a
*stable* fingerprint of the label set (CRC32 over the canonical sorted
pairs — Python's own ``hash`` is salted per process and would scatter
series differently on every run, breaking deterministic replay and
crash recovery).
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb


def series_fingerprint(labels: Labels) -> int:
    """Stable 32-bit fingerprint of a label set.

    CRC32 over the canonical sorted (name, value) pairs with unit/record
    separators.  Identical across processes and platforms — the property
    WAL partitioning, recovery and the remote-write frame check lean on.
    It is not an identity: label values may hold the separators, so
    distinct label sets can collide (``{a="b\\x1ec\\x1f"}`` and ``{a="b",
    c=""}`` under one name do), and any two may collide by chance.  A
    collision only puts two series in the same partition; series are
    keyed by their labels everywhere.
    """
    digest = 0
    for name, value in labels.items():
        digest = zlib.crc32(name.encode("utf-8"), digest)
        digest = zlib.crc32(b"\x1f", digest)
        digest = zlib.crc32(value.encode("utf-8"), digest)
        digest = zlib.crc32(b"\x1e", digest)
    return digest


def shard_for(labels: Labels, shards: int) -> int:
    """The WAL partition a series routes to."""
    return series_fingerprint(labels) % shards


def build_storage_engine(shards: int, retention_ns: Optional[int] = None) -> Tsdb:
    """The one index, at any shard count.  The name stays because
    ``benchmarks/e2e/dashboard_read.py`` builds its store through it."""
    del shards
    return Tsdb(retention_ns=retention_ns)


#: The name ``benchmarks/e2e/tracing.py`` imports and wraps
#: ``vars(ShardedTsdb)[...]`` of.  Wrapping a function twice under one
#: layer name nests into one span, so span counts are unchanged.
ShardedTsdb = Tsdb
