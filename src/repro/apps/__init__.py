"""Workload applications and load generators.

The paper evaluates TEEMon with three real applications — Redis, NGINX and
MongoDB (§6.3) — driven by memtier_benchmark / redis-benchmark (§6.4-6.5).
This package models each of them as aggregate load, which is how TEEMon
sees them (counts of syscalls, faults and cache events per slice):

* :class:`~repro.apps.kvstore.RedisLikeServer` — a synthetic key-value
  population with RESP-style byte accounting;
* :class:`~repro.apps.webserver.NginxLikeServer` — a static web server
  whose request slices read through the page cache;
* :class:`~repro.apps.docstore.MongoLikeServer` — a document store's
  per-operation cost and syscall mix;
* :class:`~repro.apps.clients.MemtierBenchmark` and
  :class:`~repro.apps.clients.RedisBenchmark` — load generators matching
  the paper's configurations (8 client threads, a pipeline of 8, GET
  workloads over 720 000 pre-populated keys).
"""

from repro.apps.clients import BenchmarkResult, MemtierBenchmark, RedisBenchmark
from repro.apps.docstore import MongoLikeServer
from repro.apps.kvstore import RedisLikeServer, db_bytes_for
from repro.apps.webserver import NginxLikeServer

__all__ = [
    "RedisLikeServer",
    "NginxLikeServer",
    "MongoLikeServer",
    "MemtierBenchmark",
    "RedisBenchmark",
    "BenchmarkResult",
    "db_bytes_for",
]
