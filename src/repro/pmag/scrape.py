"""Pull-based metric scraping with service discovery and fault tolerance.

The paper argues for pull over push (§4): the aggregator controls ingest
rate, misbehaving services cannot flood it, and unreachable targets are
detected because the scraper doubles as a health checker.  All three
behaviours live here, hardened against the failure modes
:mod:`repro.faults` injects:

* :class:`ScrapeTarget` — one endpoint with job/instance identity;
* :class:`ScrapeManager` — scrapes every target each interval (default 5 s,
  the paper's default exporter query rate), parses the OpenMetrics body,
  appends samples to the TSDB with scrape-time labels attached, and writes
  the synthetic ``up`` series (1 healthy / 0 down) per target;
* timeout budget — a response slower than ``timeout_budget_s`` is a
  failure even if a body eventually arrived (the pull model's defence
  against hung exporters);
* retries — failed scrapes retry on the virtual clock with jittered
  exponential backoff, capped so retries never collide with the next
  scheduled interval;
* staleness — a target that misses ``staleness_intervals`` consecutive
  scheduled scrapes gets a ``scrape_target_stale`` marker (cleared on
  recovery), so dashboards can distinguish "briefly down" from "gone";
* self-monitoring — the scraper's own counters are real OpenMetrics
  :class:`~repro.openmetrics.types.Counter` families in
  :attr:`ScrapeManager.self_registry` (served by the ``teemon_self``
  target, so ``rate(teemon_scrape_retries_total[1m])`` works in PromQL);
  the legacy ``scrape_*_total`` series are still appended each cycle and
  :meth:`ScrapeManager.self_stats` remains a dict view over the counters;
* tracing — when constructed with a :class:`~repro.trace.tracer.Tracer`,
  every scrape cycle produces one trace: per-target child spans cover the
  HTTP fetch (with a W3C ``traceparent`` header propagated through the
  transport), the OpenMetrics parse and the TSDB append, with injected
  delays, timeouts and retry scheduling annotated as span events.
  Retries continue their cycle's trace via the saved span context.
  Tracing is off by default (the no-op tracer);
* exemplars — samples whose exposition line carried an OpenMetrics
  exemplar (``# {trace_id=…,span_id=…} v ts``) have it captured per
  metric name, resolvable back to a stored trace;
* service discovery — a callback returning the current target list, so a
  Kubernetes-style cluster can add and remove exporters dynamically
  (§5.4); static targets and discovered targets coexist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import OpenMetricsError, TsdbError
from repro.net.http import HttpNetwork
from repro.openmetrics.parser import SeriesTable, parse_exposition
from repro.openmetrics.registry import CollectorRegistry
from repro.openmetrics.types import Exemplar
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng
from repro.trace import NOOP_TRACER, TRACEPARENT_HEADER

DEFAULT_SCRAPE_INTERVAL_NS = 5 * NANOS_PER_SEC
#: Scrape responses slower than this are treated as timeouts.
SCRAPE_TIMEOUT_S = 1.0

#: Identity labels under which the scraper's own counters are stored.
SELF_IDENTITY = {"job": "pmag", "instance": "scraper"}

#: Modelled exposition-transfer rate used for ``scrape_duration_seconds``
#: and the fetch span's virtual time (bytes per second).
TRANSFER_BYTES_PER_S = 50e6
#: Modelled OpenMetrics parse rate (bytes per second).
PARSE_BYTES_PER_S = 200e6
#: Modelled per-sample TSDB append cost (nanoseconds).
APPEND_NS_PER_SAMPLE = 2_000


@dataclass(frozen=True)
class ScrapeTarget:
    """One scrape endpoint and its identity labels."""

    job: str
    instance: str
    url: str

    def identity(self) -> Dict[str, str]:
        """Labels attached to every sample from this target."""
        return {"job": self.job, "instance": self.instance}


@dataclass
class TargetHealth:
    """Rolling health of one target."""

    up: bool = False
    consecutive_failures: int = 0
    last_scrape_ns: int = -1
    scrapes: int = 0
    failures: int = 0
    timeouts: int = 0
    retries: int = 0
    flaps: int = 0
    #: Consecutive *scheduled* (non-retry) scrapes that failed.
    missed_intervals: int = 0
    stale: bool = False
    #: Whether any scrape has completed — the first observation sets the
    #: up/down baseline without counting a flap.
    observed: bool = False
    #: What the last good exposition taught the scraper about this
    #: target's series, so a steady-state line is neither re-parsed nor
    #: re-labelled: the parser's ``line prefix -> (name, labels)`` memo
    #: (see :func:`~repro.openmetrics.parser.parse_exposition`) and the
    #: stored :class:`Labels` — identity attached — per ``(name,
    #: labels)``.  Both hold only what that exposition contained;
    #: ``own`` holds the label sets of the few series the scraper writes
    #: about the target itself (``up``, scrape metadata, staleness), by
    #: name.  All three go when this record does (target retired,
    #: monitor resurrected).
    series: SeriesTable = field(default_factory=dict, repr=False)
    stored: Dict[tuple, Labels] = field(default_factory=dict, repr=False)
    own: Dict[str, Labels] = field(default_factory=dict, repr=False)


def _series_labels(name: str, pairs, identity: Dict[str, str]) -> Labels:
    """The stored label set of one scraped series."""
    mapping = dict(pairs)
    mapping.update(identity)  # target identity wins on collision
    mapping[METRIC_NAME_LABEL] = name
    return Labels(mapping)


class ScrapeManager:
    """Periodically pulls all targets into the TSDB."""

    def __init__(
        self,
        clock: VirtualClock,
        network: HttpNetwork,
        tsdb: Tsdb,
        interval_ns: int = DEFAULT_SCRAPE_INTERVAL_NS,
        timeout_budget_s: float = SCRAPE_TIMEOUT_S,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_jitter: float = 0.5,
        staleness_intervals: int = 3,
        rng: Optional[DeterministicRng] = None,
        self_monitor: bool = True,
        tracer=None,
        host: Optional[str] = None,
    ) -> None:
        if interval_ns <= 0:
            raise TsdbError(f"scrape interval must be positive, got {interval_ns}")
        if timeout_budget_s <= 0:
            raise TsdbError(f"timeout budget must be positive, got {timeout_budget_s}")
        if max_retries < 0:
            raise TsdbError(f"negative retry count: {max_retries}")
        if backoff_base_s <= 0:
            raise TsdbError(f"backoff base must be positive, got {backoff_base_s}")
        if not 0.0 <= backoff_jitter < 1.0:
            raise TsdbError(f"backoff jitter must be in [0, 1), got {backoff_jitter}")
        if staleness_intervals < 1:
            raise TsdbError(f"staleness threshold must be >= 1, got {staleness_intervals}")
        self._clock = clock
        self._network = network
        self._tsdb = tsdb
        self.interval_ns = interval_ns
        self.timeout_budget_s = timeout_budget_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self.staleness_intervals = staleness_intervals
        self.self_monitor = self_monitor
        #: Federation identity: stamped onto the scraper's own meta
        #: series (which otherwise carry only the fixed
        #: :data:`SELF_IDENTITY`), so copies remote-written from
        #: different monitors stay distinct series instead of colliding
        #: sample-for-sample at a relay tier.
        self._self_identity = dict(SELF_IDENTITY)
        if host is not None:
            self._self_identity["host"] = host
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._backoff_rng = (rng or DeterministicRng(0)).fork("scrape-backoff")
        self._static_targets: List[ScrapeTarget] = []
        self._discoverers: List[Callable[[], List[ScrapeTarget]]] = []
        self._health: Dict[ScrapeTarget, TargetHealth] = {}
        self._retry_timers: Dict[ScrapeTarget, object] = {}
        #: Trace context of the failed attempt, so a retry continues the
        #: same trace instead of starting a fresh one.
        self._retry_contexts: Dict[ScrapeTarget, object] = {}
        self._timer = None
        # The scraper's own counters, as registered OpenMetrics families —
        # the ``teemon_self`` target serves this registry, which is what
        # makes ``rate(teemon_scrape_retries_total[1m])`` a real PromQL
        # query.  The int attributes below are properties over these.
        registry = CollectorRegistry()
        self.self_registry = registry
        self._ingested_counter = registry.counter(
            "teemon_scrape_samples_ingested_total",
            "Exposition samples appended to the TSDB",
        )
        self._up_writes_counter = registry.counter(
            "teemon_scrape_up_writes_total",
            "Synthetic up-series samples written",
        )
        self._meta_writes_counter = registry.counter(
            "teemon_scrape_meta_writes_total",
            "Scrape metadata samples written (duration, sample count)",
        )
        self._dropped_counter = registry.counter(
            "teemon_scrape_samples_dropped_total",
            "Duplicate-timestamp samples dropped on append",
        )
        self._stale_writes_counter = registry.counter(
            "teemon_scrape_stale_writes_total",
            "Staleness-marker transitions written",
        )
        self._timeouts_counter = registry.counter(
            "teemon_scrape_timeouts_total",
            "Scrapes discarded because the response exceeded the budget",
        )
        self._retries_counter = registry.counter(
            "teemon_scrape_retries_total",
            "Retry attempts issued after failed scrapes",
        )
        self._flaps_counter = registry.counter(
            "teemon_target_flaps_total",
            "Target up/down transitions observed",
        )
        self._removed_counter = registry.counter(
            "teemon_scrape_targets_removed_total",
            "Targets dropped by discovery and retired with staleness markers",
        )
        #: (job, instance) identities whose removal wrote a staleness
        #: marker; if discovery ever returns them again, the first
        #: healthy scrape clears the marker.  Keyed by identity (not
        #: URL) because that is what the ``scrape_target_stale`` series
        #: carries — which lets crash recovery rebuild this set from the
        #: recovered TSDB (:meth:`seed_removed_stale`).
        self._removed_stale: set = set()
        #: The label sets of the scraper's own self-series, by name.
        self._own: Dict[str, Labels] = {}
        #: Latest exemplar seen per metric name on ingested samples.
        self._exemplars: Dict[str, Tuple[Tuple[Tuple[str, str], ...], Exemplar]] = {}

    # ------------------------------------------------------------------
    # Self-monitoring counters (dict/attribute views over the registry)
    # ------------------------------------------------------------------
    @property
    def samples_ingested(self) -> int:
        """Exposition samples appended (``up``/metadata counted separately)."""
        return int(self._ingested_counter.value)

    @property
    def up_writes(self) -> int:
        """Synthetic ``up`` samples written."""
        return int(self._up_writes_counter.value)

    @property
    def meta_writes(self) -> int:
        """Scrape-metadata samples written."""
        return int(self._meta_writes_counter.value)

    @property
    def samples_dropped(self) -> int:
        """Duplicate-timestamp samples silently dropped on append."""
        return int(self._dropped_counter.value)

    @property
    def stale_writes(self) -> int:
        """Staleness-marker transitions written (1.0 stale, 0.0 clear)."""
        return int(self._stale_writes_counter.value)

    @property
    def timeouts_total(self) -> int:
        """Scrapes discarded past the timeout budget."""
        return int(self._timeouts_counter.value)

    @property
    def retries_total(self) -> int:
        """Retry attempts issued."""
        return int(self._retries_counter.value)

    @property
    def flaps_total(self) -> int:
        """Up/down transitions observed."""
        return int(self._flaps_counter.value)

    @property
    def targets_removed(self) -> int:
        """Targets retired after discovery stopped returning them."""
        return int(self._removed_counter.value)

    # ------------------------------------------------------------------
    # Target management
    # ------------------------------------------------------------------
    def add_target(self, target: ScrapeTarget) -> None:
        """Register a static target."""
        if target in self._static_targets:
            raise TsdbError(f"target already registered: {target.url}")
        self._static_targets.append(target)

    def add_discovery(self, discoverer: Callable[[], List[ScrapeTarget]]) -> None:
        """Register a service-discovery source, called before each cycle."""
        self._discoverers.append(discoverer)

    def current_targets(self) -> List[ScrapeTarget]:
        """Static plus currently discovered targets (deduplicated)."""
        seen = {}
        for target in self._static_targets:
            seen[target.url] = target
        for discoverer in self._discoverers:
            for target in discoverer():
                seen.setdefault(target.url, target)
        return list(seen.values())

    def health(self, target: ScrapeTarget) -> TargetHealth:
        """Health record for a target (created on first access)."""
        health = self._health.get(target)
        if health is None:
            health = self._health[target] = TargetHealth()
        return health

    def down_targets(self) -> List[ScrapeTarget]:
        """Targets whose last scrape failed."""
        return [t for t, h in self._health.items() if not h.up and h.scrapes > 0]

    # ------------------------------------------------------------------
    # Recovery seeding
    # ------------------------------------------------------------------
    def seed_target_state(self, target: ScrapeTarget, up: bool,
                          stale: bool = False) -> None:
        """Restore a target's pre-crash health baseline.

        Called by the recovery path with state derived from the recovered
        TSDB's ``up`` / ``scrape_target_stale`` series, so the first
        post-restart scrape compares against the pre-crash state: a
        target that was up and still is does not count a flap, and a
        target that was already stale does not re-write its marker.
        """
        health = self.health(target)
        health.up = up
        health.observed = True
        health.stale = stale
        health.missed_intervals = self.staleness_intervals if stale else 0

    def seed_removed_stale(self, identities) -> None:
        """Restore pending removal-staleness markers after a crash.

        ``identities`` are ``(job, instance)`` pairs whose latest
        ``scrape_target_stale`` sample in the recovered TSDB is set —
        targets retired by discovery (or gone stale) before the crash.
        Without this, a retired target that rejoins after a recovery
        would start from a fresh health record and its marker would
        never be cleared by the first healthy scrape.
        """
        self._removed_stale.update(identities)

    def seed_counters(self, values: Dict[str, float]) -> None:
        """Restore self-stat counters from recovered series values.

        Keys are family names (e.g. ``teemon_scrape_timeouts_total``);
        unknown names are ignored and counters only move forward, so
        seeding from a stale recovered value can never rewind a live
        counter.
        """
        for name, value in values.items():
            try:
                family = self.self_registry.get(name)
            except OpenMetricsError:
                continue
            child = family.labels()
            if value > child.value:
                child.set_to(value)

    def stale_targets(self) -> List[ScrapeTarget]:
        """Targets that missed the staleness threshold of intervals."""
        return [t for t, h in self._health.items() if h.stale]

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def scrape_once(self) -> int:
        """Scrape every current target now; returns exposition samples
        ingested (the ``up`` write and scrape metadata are counted in
        :attr:`up_writes` / :attr:`meta_writes`, not here — a failed
        scrape ingests nothing)."""
        now = self._clock.now_ns
        tracer = self._tracer
        ingested = 0
        targets = self.current_targets()
        with tracer.span("scrape.cycle", {"targets": len(targets)}):
            self._retire_removed_targets(
                {target.url for target in targets}, now
            )
            for target in targets:
                self._cancel_retry(target)
                health = self.health(target)
                if health.scrapes > 0 and health.last_scrape_ns == now:
                    # An attempt (e.g. a retry that landed on the cycle
                    # boundary, or a manual scrape) already ran at this
                    # instant; one attempt per instant keeps the TSDB and the
                    # health record in agreement.
                    continue
                ingested += self._scrape_target(target, now, attempt=0)
            if self.self_monitor:
                with tracer.span("scrape.self_series"):
                    self._record_self_series(now)
            with tracer.span("tsdb.retention"):
                self._tsdb.enforce_retention(now)
        return ingested

    def _scrape_target(self, target: ScrapeTarget, now_ns: int, attempt: int) -> int:
        tracer = self._tracer
        with tracer.span("scrape.target", {
            "job": target.job, "instance": target.instance,
            "url": target.url, "attempt": attempt,
        }) as span:
            return self._scrape_target_traced(target, now_ns, attempt, span)

    def _scrape_target_traced(self, target, now_ns, attempt, span) -> int:
        tracer = self._tracer
        health = self.health(target)
        health.scrapes += 1
        health.last_scrape_ns = now_ns
        with tracer.span("net.http.get", {"url": target.url}) as get_span:
            headers = None
            context = tracer.current_context()
            if context is not None:
                headers = {TRACEPARENT_HEADER: context.to_traceparent()}
            response = self._network.get_url(target.url, headers=headers)
            latency_s = getattr(response, "latency_s", 0.0)
            get_span.set_attribute("status", response.status)
            if latency_s:
                get_span.add_event("transport.delay", latency_s=latency_s)
            get_span.add_virtual_time(int(
                (latency_s + len(response.body) / TRANSFER_BYTES_PER_S)
                * NANOS_PER_SEC
            ))
        identity = target.identity()
        if latency_s > self.timeout_budget_s:
            # The body (if any) arrived past the budget: discard it, as a
            # real scraper's deadline would have fired already.
            health.timeouts += 1
            self._timeouts_counter.inc()
            span.add_event("scrape.timeout", latency_s=latency_s,
                           budget_s=self.timeout_budget_s)
            return self._handle_failure(target, health, now_ns, attempt,
                                        identity, span)
        if not response.ok:
            span.add_event("scrape.http_failure", status=response.status)
            return self._handle_failure(target, health, now_ns, attempt,
                                        identity, span)
        with tracer.span("openmetrics.parse", {"bytes": len(response.body)}) as parse_span:
            try:
                samples = parse_exposition(response.body, health.series)
            except Exception:  # noqa: BLE001 - a bad exposition marks the target down
                parse_span.set_status("error")
                span.add_event("scrape.parse_failure")
                return self._handle_failure(target, health, now_ns, attempt,
                                            identity, span)
            parse_span.set_attribute("samples", len(samples))
            parse_span.add_virtual_time(int(
                len(response.body) / PARSE_BYTES_PER_S * NANOS_PER_SEC
            ))
        self._mark_up(target, health, identity, now_ns)
        with tracer.span("tsdb.append", {"samples": len(samples)}) as append_span:
            # The body is one commit: the batch routes series by shard in
            # a single pass and amortises WAL write-through.  Entry order
            # matches the exposition, so each exemplar follows its own
            # sample's accept/reject.
            entries = []
            carrying = []  # indices of the samples that bring an exemplar
            known = health.stored
            stored = health.stored = {}
            for name, pairs, value, exemplar in samples:
                key = (name, pairs)
                labels = known.get(key)
                if labels is None:
                    labels = _series_labels(name, pairs, identity)
                stored[key] = labels
                if exemplar is not None:
                    carrying.append(len(entries))
                entries.append((labels, now_ns, value))
            rejected = self._tsdb.append_batch(entries) if entries else []
            if rejected:
                self._dropped_counter.inc(len(rejected))
            ingested = len(entries) - len(rejected)
            if carrying:
                dropped = set(rejected)
                for index in carrying:
                    if index not in dropped:
                        name, pairs, _value, exemplar = samples[index]
                        self._exemplars[name] = (pairs, exemplar)
            append_span.set_attribute("ingested", ingested)
            append_span.add_virtual_time(len(samples) * APPEND_NS_PER_SAMPLE)
        self._ingested_counter.inc(ingested)
        # The report, as Prometheus records it: ``up``, how long the
        # scrape took (modelled from the exposition size plus transport
        # latency) and how many samples the body's commit accepted — hence
        # a commit of its own.  Operators watch these to spot bloated
        # exporters and slow links.
        duration_s = (latency_s + len(response.body) / TRANSFER_BYTES_PER_S
                      + 0.001)
        self._append(now_ns, [
            ("up", 1.0, self._up_writes_counter),
            ("scrape_duration_seconds", duration_s, self._meta_writes_counter),
            ("scrape_samples_scraped", float(ingested),
             self._meta_writes_counter),
        ], identity, health.own)
        return ingested

    def _retire_removed_targets(self, current_urls, now_ns: int) -> None:
        """Retire health records of targets discovery no longer returns.

        A departed node's series must not linger as phantoms: the target
        gets a final ``up 0`` and a staleness marker (the same mechanism
        as a target that missed the staleness threshold of scrapes), its
        pending retry is cancelled, and its health record is dropped so
        the targets page reflects the live topology.
        """
        for target in list(self._health):
            if target.url in current_urls:
                continue
            health = self._health.pop(target)
            self._cancel_retry(target)
            self._removed_counter.inc()
            if not health.observed:
                continue  # never scraped: nothing in the TSDB to retire
            writes = []
            if health.up:
                writes.append(("up", 0.0, self._up_writes_counter))
            if not health.stale:
                writes.append(
                    ("scrape_target_stale", 1.0, self._stale_writes_counter))
            self._append(now_ns, writes, target.identity(), health.own)
            self._removed_stale.add((target.job, target.instance))

    # ------------------------------------------------------------------
    # Failure handling, retries, staleness
    # ------------------------------------------------------------------
    def _handle_failure(
        self,
        target: ScrapeTarget,
        health: TargetHealth,
        now_ns: int,
        attempt: int,
        identity: Dict[str, str],
        span=None,
    ) -> int:
        health.failures += 1
        health.consecutive_failures += 1
        if attempt == 0:
            health.missed_intervals += 1
        if health.observed and health.up:
            health.flaps += 1
            self._flaps_counter.inc()
        health.up = False
        health.observed = True
        writes = [("up", 0.0, self._up_writes_counter)]
        if not health.stale and health.missed_intervals >= self.staleness_intervals:
            health.stale = True
            writes.append(
                ("scrape_target_stale", 1.0, self._stale_writes_counter))
        self._append(now_ns, writes, identity, health.own)
        if span is not None:
            span.set_status("error")
        if attempt < self.max_retries:
            delay_ns = self._schedule_retry(target, attempt)
            if span is not None:
                span.add_event("scrape.retry_scheduled",
                               attempt=attempt + 1, delay_ns=delay_ns)
                context = getattr(span, "context", None)
                if context is not None:
                    self._retry_contexts[target] = context
        return 0

    def _mark_up(
        self,
        target: ScrapeTarget,
        health: TargetHealth,
        identity: Dict[str, str],
        now_ns: int,
    ) -> None:
        if health.observed and not health.up:
            health.flaps += 1
            self._flaps_counter.inc()
        health.up = True
        health.observed = True
        health.consecutive_failures = 0
        health.missed_intervals = 0
        key = (target.job, target.instance)
        if health.stale or key in self._removed_stale:
            # Stale, or retired by discovery and back under a fresh health
            # record: clear the staleness marker, ahead of the body.
            health.stale = False
            self._append(now_ns, [("scrape_target_stale", 0.0,
                                   self._stale_writes_counter)],
                         identity, health.own)
        self._removed_stale.discard(key)

    def backoff_delay_ns(self, attempt: int) -> int:
        """Jittered exponential backoff before retry ``attempt + 1``.

        ``base * 2^attempt``, multiplied by a uniform jitter factor in
        ``[1 - jitter, 1 + jitter)`` drawn from the manager's seeded
        stream, and capped at one scrape interval so a retry can never
        land after the next scheduled cycle would have superseded it.
        """
        delay_s = self.backoff_base_s * (2 ** attempt)
        if self.backoff_jitter:
            delay_s *= 1.0 + self.backoff_jitter * (
                2.0 * self._backoff_rng.random() - 1.0
            )
        return min(int(delay_s * NANOS_PER_SEC), self.interval_ns)

    def _schedule_retry(self, target: ScrapeTarget, attempt: int) -> int:
        delay_ns = self.backoff_delay_ns(attempt)
        self._retry_timers[target] = self._clock.call_later(
            delay_ns, lambda: self._retry(target, attempt + 1)
        )
        return delay_ns

    def _retry(self, target: ScrapeTarget, attempt: int) -> None:
        self._retry_timers.pop(target, None)
        parent = self._retry_contexts.pop(target, None)
        if all(t.url != target.url for t in self.current_targets()):
            return  # target went away between failure and retry
        health = self.health(target)
        health.retries += 1
        self._retries_counter.inc()
        # The retry joins its cycle's trace through the saved context —
        # one scrape, one trace, however many attempts it took.
        with self._tracer.span("scrape.retry", {"attempt": attempt},
                               parent=parent):
            self._scrape_target(target, self._clock.now_ns, attempt)

    def _cancel_retry(self, target: ScrapeTarget) -> None:
        timer = self._retry_timers.pop(target, None)
        if timer is not None:
            timer.cancel()
        self._retry_contexts.pop(target, None)

    def _cancel_all_retries(self) -> None:
        for target in list(self._retry_timers):
            self._cancel_retry(target)

    # ------------------------------------------------------------------
    # Ingest and self-monitoring
    # ------------------------------------------------------------------
    def _append(self, now_ns: int, writes, identity: Dict[str, str],
                own: Dict[str, Labels]) -> None:
        """Commit the scraper's own ``(name, value, counter)`` samples
        under ``identity`` as one batch; each accepted one bumps its
        ``counter`` (if any).  ``own`` remembers the series'
        :class:`Labels` by name: a target's :attr:`TargetHealth.own`, or
        the manager's table for its self-series.
        """
        if not writes:
            return
        entries = []
        for name, value, _counter in writes:
            labels = own.get(name)
            if labels is None:
                labels = own[name] = _series_labels(name, (), identity)
            entries.append((labels, now_ns, value))
        rejected = self._tsdb.append_batch(entries)
        if rejected:
            # Two scrapes in the same instant (e.g. manual + scheduled)
            # produce a duplicate timestamp; the later sample is dropped,
            # which is what Prometheus does with out-of-order ingestion —
            # but the drop is counted so operators can see it happening.
            self._dropped_counter.inc(len(rejected))
        for index, (_name, _value, counter) in enumerate(writes):
            if counter is not None and index not in rejected:
                counter.inc()

    def _record_self_series(self, now_ns: int) -> None:
        """Append the scraper's own counters — the monitor monitors itself."""
        self._append(now_ns, [
            (name, float(value), None) for name, value in (
                ("scrape_timeouts_total", self.timeouts_total),
                ("scrape_retries_total", self.retries_total),
                ("scrape_samples_dropped_total", self.samples_dropped),
                ("target_flaps_total", self.flaps_total),
                ("scrape_targets_removed_total", self.targets_removed),
            )
        ], self._self_identity, self._own)

    def self_stats(self) -> Dict[str, int]:
        """The self-monitoring counters as a plain mapping (a view over
        the registered OpenMetrics families in :attr:`self_registry`)."""
        return {
            "scrape_timeouts_total": self.timeouts_total,
            "scrape_retries_total": self.retries_total,
            "scrape_samples_dropped_total": self.samples_dropped,
            "target_flaps_total": self.flaps_total,
            "scrape_targets_removed_total": self.targets_removed,
            "samples_ingested": self.samples_ingested,
            "up_writes": self.up_writes,
        }

    # ------------------------------------------------------------------
    # Exemplars
    # ------------------------------------------------------------------
    def exemplar_for(self, metric_name: str) -> Optional[Exemplar]:
        """The most recent exemplar ingested for ``metric_name`` (if any)."""
        entry = self._exemplars.get(metric_name)
        return entry[1] if entry is not None else None

    def exemplar_metrics(self) -> List[str]:
        """Metric names that have carried an exemplar."""
        return sorted(self._exemplars)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic scraping on the virtual clock."""
        if self._timer is not None:
            raise TsdbError("scrape manager already running")
        self._timer = self._clock.call_every(self.interval_ns, self.scrape_once)

    def stop(self) -> None:
        """Stop periodic scraping and cancel outstanding retries."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._cancel_all_retries()
