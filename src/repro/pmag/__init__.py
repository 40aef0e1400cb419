"""Performance Metrics Aggregation: a Prometheus-like TSDB.

The paper's PMAG component "embeds a time-series database, a metrics
retrieval component, and an HTTP server ... stores all metrics data
samples locally and groups them into chunks for faster retrieval ...
allows for multi-dimensional data with the help of metric labels ...
supports data queries over specified time ranges and labeled dimensions"
(§4).  Each of those clauses maps to a module here:

* :mod:`repro.pmag.model` — labelled series and samples;
* :mod:`repro.pmag.chunks` — chunked, delta-encoded sample storage;
* :mod:`repro.pmag.tsdb` — the database: :class:`Tsdb`, the one index
  every layer reads and writes;
* :mod:`repro.pmag.storage` — the stable series fingerprint the WAL's
  partitions (``storage_shards``) route by;
* :mod:`repro.pmag.wal` — the write-ahead log, its partitions and crash
  recovery;
* :mod:`repro.pmag.scrape` — pull-based scraping with service discovery
  and target health (the ``up`` metric);
* :mod:`repro.pmag.query` — a PromQL-subset query engine with range
  selectors, ``rate``/``*_over_time`` functions, aggregation by label and
  binary arithmetic;
* :mod:`repro.pmag.remote_write` — the federation uplink: batched,
  compressed, sequence-numbered sample frames from leaf monitors to a
  global monitor with exactly-once ingest.
"""

from repro.pmag.model import Labels, Sample, Series
from repro.pmag.remote_write import RemoteWriteClient, RemoteWriteReceiver
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb

__all__ = [
    "Labels",
    "RemoteWriteClient",
    "RemoteWriteReceiver",
    "Sample",
    "Series",
    "Tsdb",
    "ScrapeManager",
    "ScrapeTarget",
]
