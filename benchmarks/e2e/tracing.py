"""Benchmark-side span recorder: wraps calls into each layer's public API.

The traced pass patches the callables listed in :func:`install` — class
attributes, and module-level functions at every ``repro`` import site —
from here only; nothing under ``src/`` knows it is being measured.  A
span is ``(id, name, start, end, parent)``.  A layer's *self time* is its
span's duration minus the part its child spans cover, so self times over
all spans sum to the root ``driver`` spans — one per timed step, together
the timed window — exactly.

A name never nests inside itself: ``ShardedTsdb.append_batch`` calling
``Tsdb.append_batch`` is one ``tsdb.append`` span (the outermost), not
two.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional


class SpanRecorder:
    """In-memory span stack with per-name aggregates."""

    def __init__(self) -> None:
        #: Spans are recorded only while a timed step is open.
        self.on = False
        #: Keep full spans (first cycles only); aggregates are always kept.
        self.keep_spans = True
        #: name -> [calls, total_s, self_s]
        self.aggregates: Dict[str, List[float]] = {}
        #: Closed spans: (id, name, start_s, end_s, parent_id) relative to
        #: the start of the first step.
        self.spans: List[tuple] = []
        #: Sums fed by wrappers that measure their arguments or results.
        self.measures: Dict[str, float] = {}
        self._stack: List[list] = []  # [name, start, child_s, id]
        self._active: Dict[str, int] = {}
        self._next_id = 0
        self._origin = 0.0

    def open_step(self) -> None:
        """Start recording one timed step under a root ``driver`` span."""
        if self._next_id == 0:
            self._origin = time.perf_counter()
        self.on = True
        self._enter("driver")

    def close_step(self) -> float:
        """Close the step's root span; returns its duration."""
        duration = self._exit()
        self.on = False
        return duration

    def _enter(self, name: str) -> None:
        self._active[name] = 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> float:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        self._active[name] = 0
        duration = end - start
        entry = self.aggregates.get(name)
        if entry is None:
            self.aggregates[name] = entry = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if self.keep_spans:
            self.spans.append((span_id, name, start - self._origin,
                               end - self._origin, parent_id))
        return duration

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` under a ``name`` span.  ``measure(args, result)`` may
        return a number added to ``measures[name]`` (a count taken at the
        boundary, after the span has closed)."""
        active = self._active
        active.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on or active[name]:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if measure is not None:
                self.measures[name] = (
                    self.measures.get(name, 0) + measure(args, result)
                )
            return result

        return wrapper


def _selected_samples(_args, result) -> int:
    """Samples a ``select``/``select_arrays`` call handed back."""
    total = 0
    for item in result:
        samples = getattr(item, "samples", None)
        total += len(samples) if samples is not None else len(item[1])
    return total


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of the span table (see README.md)."""
    from repro.apps.clients import MemtierBenchmark
    from repro.ebpf.vm import Vm
    from repro.frameworks.base import SgxFramework
    from repro.net.http import HttpNetwork
    from repro.openmetrics.encoder import encode_registry
    from repro.openmetrics.parser import parse_exposition
    from repro.orchestration.kubernetes import Cluster
    from repro.pmag import remote_write, wal
    from repro.pmag.alerting import AlertingRule, NotificationRouter
    from repro.pmag.query.engine import QueryEngine
    from repro.pmag.rules import RuleEvaluator, RuleGroup
    from repro.pmag.scrape import ScrapeManager
    from repro.pmag.storage import ShardedTsdb
    from repro.pmag.tsdb import Tsdb
    from repro.pman.analyzer import PmanAnalyzer
    from repro.simkernel.clock import VirtualClock
    from repro.simkernel.hooks import HookRegistry
    from repro.simkernel.syscalls import SyscallTable
    from repro.teemon.deploy import TeemonDeployment
    from repro.teemon.session import MonitoringSession
    from repro.trace import AnomalyDetector

    def methods(name, cls, *names, measure=None):
        for method in names:
            setattr(cls, method,
                    recorder.wrap(name, cls.__dict__[method], measure))

    def functions(name, *fns, measure=None):
        """Replace module-level functions at every ``repro`` import site
        (``from x import f`` binds ``f`` in the importing module too)."""
        for fn in fns:
            wrapper = recorder.wrap(name, fn, measure)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    # Monitored substrate.
    methods("apps.run", MemtierBenchmark, "run")
    methods("frameworks.emit_slice", SgxFramework, "emit_slice")
    methods("simkernel.syscalls.dispatch", SyscallTable, "dispatch")
    methods("simkernel.hooks.fire", HookRegistry, "fire")
    methods("ebpf.vm.run", Vm, "run")
    methods("simkernel.clock.run", VirtualClock, "run_until")

    # Exposition and transport.  GET handlers are wrapped as they are
    # registered, so every exporter body is an ``exporters.serve`` span.
    register = HttpNetwork.__dict__["register"]

    @functools.wraps(register)
    def register_traced(self, host, port, path, handler):
        return register(self, host, port, path,
                        recorder.wrap("exporters.serve", handler))

    HttpNetwork.register = register_traced
    functions("openmetrics.encode", encode_registry)
    methods("orchestration.discover", Cluster, "discover_scrape_targets")
    methods("net.http.request", HttpNetwork, "request")

    # Scrape and ingest.
    methods("scrape.cycle", ScrapeManager, "scrape_once")
    functions("openmetrics.parse", parse_exposition,
              measure=lambda args, _result: len(args[0]))
    methods("tsdb.append", Tsdb, "append", "append_batch")
    methods("tsdb.append", ShardedTsdb, "append", "append_batch",
            "append_fingerprinted")
    for engine in (Tsdb, ShardedTsdb):
        methods("tsdb.retention", engine, "enforce_retention", "compact")
        methods("tsdb.select", engine, "select", "select_arrays",
                measure=_selected_samples)
        methods("tsdb.select", engine, "select_rollups")

    # Durability.
    methods("wal.append", wal.WalWriter, "append", "append_many")
    for log in (wal.WalWriter, wal.ShardedWal):
        methods("wal.flush", log, "flush")
        methods("wal.checkpoint", log, "checkpoint")
    functions("wal.recover", wal.recover, wal.recover_sharded)
    methods("teemon.resurrect", TeemonDeployment, "resurrect")

    # Federation.
    methods("remote_write.flush", remote_write.RemoteWriteClient, "flush")
    functions("remote_write.encode", remote_write.encode_frame)
    methods("remote_write.handle", remote_write.RemoteWriteReceiver, "handle")
    functions("remote_write.decode", remote_write.decode_frame_blocks,
              remote_write.decode_frame)

    # Rules, alerting, analysis.
    methods("rules.evaluate", RuleEvaluator, "evaluate_all_once")
    methods("rules.evaluate", RuleGroup, "evaluate")
    methods("alerting.evaluate", AlertingRule, "evaluate")
    methods("alerting.route", NotificationRouter, "handle")
    methods("pman.analyze", PmanAnalyzer, "analyze_once")
    methods("trace.detect", AnomalyDetector, "run")

    # Query and visualisation.
    methods("query.parse", QueryEngine, "parse")
    methods("query.instant", QueryEngine, "instant", "instant_plan")
    methods("query.range", QueryEngine, "range_query")
    methods("pmv.render", MonitoringSession, "render")
