"""``dashboard_read``: the storage layer used the other way.

A monolith engine preloaded with a fleet's worth of closed-form series
(linear counters, a sawtooth gauge, a ``region`` label over 4 values) and
one client refreshing a 10-panel dashboard in a closed loop: 3 instant
and 5 range panels with fixed query strings, which the 256-entry plan
cache keeps, plus 2 per-instance drill-down panels whose ``instance=``
matcher moves over the fleet so each of their strings is seen once.
One step is one refresh; the first refresh of every panel is checked
against the vector the closed forms predict.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import QueryError, ReproError
from repro.pmag.model import METRIC_NAME_LABEL, Labels
from repro.pmag.query.engine import QueryEngine
from repro.pmag.storage import build_storage_engine
from repro.simkernel.clock import NANOS_PER_SEC

from benchmarks.e2e.harness import Workload
from benchmarks.e2e.sink import close, digest_of, series_rows, vector_rows

SCRAPE_S = 5
REGIONS = 4

Key = Tuple[Tuple[str, str], ...]
Points = Dict[int, float]


def utilization(node: int, t: int) -> float:
    """The sawtooth gauge: one tooth a minute, phase from the node."""
    return 0.30 + 0.40 * (((t / 60.0) + (node % 10) / 10.0) % 1.0)


def syscall_rate(node: int) -> float:
    return 400.0 + node


def eviction_rate(node: int) -> float:
    return 8.0 + node


AEX_RATE = 20.0


class DashboardRead(Workload):
    STEPS = (120, 12)

    def __init__(self, seed: int, quick: bool) -> None:
        # Every input is closed-form; the seed has nothing to perturb.
        del seed
        self.nodes = 12 if quick else 120
        self.cycles = 72 if quick else 360
        #: Panels look back over the whole preloaded span (30 min).
        self.window_s = self.end_s = self.cycles * SCRAPE_S
        self.now_ns = self.end_s * NANOS_PER_SEC
        self.tsdb = build_storage_engine(1)
        self.engine = QueryEngine(self.tsdb)
        self._preload()
        self.queries = 0
        self.errors = 0
        self.first_refresh: List[Tuple[str, object]] = []
        self.instant_panels = [
            'sum(up{job="sgx"})',
            "count(node_cpu_utilization > 0.5)",
            "max(rate(sgx_aexs_total[1m]))",
        ]
        self.range_panels = [
            ('rate(ebpf_syscalls_total{instance=~"node-(0|4|8)"}[1m])', 15),
            ("sum by (region) (rate(ebpf_syscalls_total[1m]))", 60),
            ("rate(sgx_epc_pages_evicted_total[1m])", 60),
            ("topk(5, rate(sgx_epc_pages_evicted_total[1m]))", 60),
            ("avg by (region) (avg_over_time(node_cpu_utilization[5m]))", 60),
        ]

    def _identity(self, node: int) -> Dict[str, str]:
        return {"job": "sgx", "instance": f"node-{node}",
                "region": f"r{node % REGIONS}"}

    def _preload(self) -> None:
        families: List[Tuple[str, Callable[[int, int], float]]] = [
            ("up", lambda node, t: 1.0),
            ("ebpf_syscalls_total", lambda node, t: syscall_rate(node) * t),
            ("sgx_epc_pages_evicted_total",
             lambda node, t: eviction_rate(node) * t),
            ("sgx_aexs_total", lambda node, t: AEX_RATE * t),
            ("node_cpu_utilization", utilization),
        ]
        series = [
            (Labels({METRIC_NAME_LABEL: name, **self._identity(node)}),
             node, value)
            for node in range(self.nodes) for name, value in families
        ]
        for cycle in range(1, self.cycles + 1):
            t = cycle * SCRAPE_S
            rejected = self.tsdb.append_batch([
                (labels, t * NANOS_PER_SEC, value(node, t))
                for labels, node, value in series
            ])
            if rejected:
                raise ReproError(f"preload rejected {len(rejected)} samples")

    # ------------------------------------------------------------------
    def _drilldowns(self, index: int) -> List[Tuple[str, int]]:
        """The two per-instance panels of refresh ``index``.  The window
        grows by a second per pass over the fleet, so a string never
        repeats however long the loop runs."""
        node, lap = index % self.nodes, index // self.nodes
        window = 60 + lap
        return [
            (f'rate(ebpf_syscalls_total{{instance="node-{node}"}}'
             f"[{window}s])", 15),
            (f'avg_over_time(node_cpu_utilization{{instance="node-{node}"}}'
             f"[{window}s])", 15),
        ]

    def _run(self, keep: bool, query: str, evaluate: Callable) -> None:
        self.queries += 1
        try:
            result = evaluate()
        except QueryError:
            self.errors += 1
            return
        if keep:
            self.first_refresh.append((query, result))

    def step(self, index: int) -> None:
        engine, now = self.engine, self.now_ns
        start = now - self.window_s * NANOS_PER_SEC
        keep = index == 0
        for query in self.instant_panels:
            self._run(keep, query, lambda: engine.instant(query, now))
        for query, step_s in self.range_panels + self._drilldowns(index):
            self._run(keep, query, lambda: engine.range_query(
                query, start, now, step_s * NANOS_PER_SEC))

    def work(self) -> float:
        return self.queries

    def counters(self) -> Dict[str, float]:
        cache = self.engine.cache_stats()
        return {
            "tsdb.series": self.tsdb.series_count(),
            "tsdb.samples": self.tsdb.sample_count(),
            "tsdb.memory_bytes": self.tsdb.memory_bytes(),
            "query.plan_cache_hits": cache.hits,
            "query.plan_cache_misses": cache.misses,
        }

    # ------------------------------------------------------------------
    # Closed-form expectations
    # ------------------------------------------------------------------
    def _key(self, node: int) -> Key:
        return tuple(sorted(self._identity(node).items()))

    def _steps(self, step_s: int) -> List[int]:
        start = self.end_s - self.window_s
        return list(range(start, self.end_s + 1, step_s))

    def _sample_times(self, t: int, window_s: int) -> List[int]:
        """Scrape instants inside the inclusive window ``[t - w, t]``."""
        low = max(SCRAPE_S, -(-(t - window_s) // SCRAPE_S) * SCRAPE_S)
        high = min(self.end_s, t // SCRAPE_S * SCRAPE_S)
        return list(range(low, high + 1, SCRAPE_S))

    def _rate_points(self, rate: float, step_s: int,
                     window_s: int = 60) -> Points:
        """A linear counter's ``rate()`` is its slope wherever the window
        holds two samples."""
        return {
            t * NANOS_PER_SEC: rate for t in self._steps(step_s)
            if len(self._sample_times(t, window_s)) >= 2
        }

    def _util_mean(self, node: int, t: int, window_s: int) -> float:
        times = self._sample_times(t, window_s)
        return sum(utilization(node, at) for at in times) / len(times)

    def _expected(self) -> List[Dict[Key, Points]]:
        """One ``{labels: {time_ns: value}}`` map per panel of refresh 0,
        in refresh order; instant panels have the single time ``now``."""
        now, nodes = self.now_ns, range(self.nodes)
        regions: Dict[int, List[int]] = {}
        for node in nodes:
            regions.setdefault(node % REGIONS, []).append(node)
        region_key = {r: (("region", f"r{r}"),) for r in regions}
        busy = sum(1 for n in nodes if utilization(n, self.end_s) > 0.5)
        expected: List[Dict[Key, Points]] = [
            {(): {now: float(self.nodes)}},
            {(): {now: float(busy)}} if busy else {},
            {(): {now: AEX_RATE}},
            {self._key(n): self._rate_points(syscall_rate(n), 15)
             for n in (0, 4, 8)},
            {region_key[r]: self._rate_points(
                sum(syscall_rate(n) for n in members), 60)
             for r, members in regions.items()},
            {self._key(n): self._rate_points(eviction_rate(n), 60)
             for n in nodes},
            {self._key(n): self._rate_points(eviction_rate(n), 60)
             for n in range(self.nodes - 5, self.nodes)},
            {region_key[r]: {
                t * NANOS_PER_SEC: sum(
                    self._util_mean(n, t, 300) for n in members
                ) / len(members)
                for t in self._steps(60) if self._sample_times(t, 300)
            } for r, members in regions.items()},
            {self._key(0): self._rate_points(syscall_rate(0), 15)},
            {self._key(0): {
                t * NANOS_PER_SEC: self._util_mean(0, t, 60)
                for t in self._steps(15) if self._sample_times(t, 60)
            }},
        ]
        return expected

    @staticmethod
    def _observed(result, now_ns: int) -> Dict[Key, Points]:
        out: Dict[Key, Points] = {}
        for item in result:
            if isinstance(item, tuple):  # instant vector row
                labels, value = item
                out[labels.items()] = {now_ns: value}
            else:
                out[item.labels.items()] = {
                    sample.time_ns: sample.value for sample in item.samples
                }
        return out

    @staticmethod
    def _same(observed: Dict[Key, Points], expected: Dict[Key, Points]) -> bool:
        if observed.keys() != expected.keys():
            return False
        for key, points in expected.items():
            got = observed[key]
            if got.keys() != points.keys():
                return False
            if not all(close(got[t], value) for t, value in points.items()):
                return False
        return True

    def finish(self) -> dict:
        panels = len(self.instant_panels) + len(self.range_panels) + 2
        checks = {"first_refresh_complete": len(self.first_refresh) == panels}
        for (query, result), expected in zip(self.first_refresh,
                                             self._expected()):
            checks[f"closed_form: {query}"] = self._same(
                self._observed(result, self.now_ns), expected
            )
        first = [
            vector_rows(result) if result and isinstance(result[0], tuple)
            else series_rows(result)
            for _query, result in self.first_refresh
        ]
        return {
            "attempted": self.queries,
            "failed": self.errors,
            "checks": checks,
            "digest": digest_of(self.tsdb.series_count(),
                                self.tsdb.sample_count(), first),
            "level": {},
        }
