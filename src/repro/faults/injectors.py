"""Fault injectors for the simulated scrape and remote-write transport.

Each injector models one failure mode of a real monitoring deployment —
flapping exporters, slow or saturated links, responses past the scraper's
timeout budget, truncated or garbage expositions, stale replays, skewed
exporter clocks.  Injectors are *pure functions of (seed, url, request
order, virtual time)*: every stochastic decision draws from a
:class:`~repro.simkernel.rng.DeterministicRng` substream forked per
injector per URL, so two runs with the same seed and the same request
sequence inject byte-identical faults.

Injectors never touch handler code.  They run inside
:class:`repro.faults.network.FaultyHttpNetwork`, mutating a
:class:`FaultContext` either *before* the inner network is consulted
(``before`` — e.g. a flapped-down endpoint short-circuits to 503) or
*after* a response exists (``after`` — delays, body corruption, replays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.http import HttpResponse
from repro.net.network import Link
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng


@dataclass
class FaultContext:
    """One request travelling through the fault layer."""

    url: str
    method: str
    now_ns: int
    response: Optional[HttpResponse] = None
    #: Injected latency accumulated so far (added to the response's own).
    latency_s: float = 0.0
    #: Kinds of faults applied, in application order (journalled).
    applied: List[str] = field(default_factory=list)

    def short_circuit(self, status: int, body: str) -> None:
        """Replace the (future) response without consulting the handler."""
        self.response = HttpResponse(status=status, body=body)


class Injector:
    """Base injector: deterministic per-URL decision streams."""

    #: Journal tag for this injector's faults.
    kind = "fault"

    def __init__(self, rng: DeterministicRng) -> None:
        self._rng = rng
        self._streams: Dict[str, DeterministicRng] = {}

    def stream(self, url: str) -> DeterministicRng:
        """The RNG substream owned by this injector for one URL."""
        stream = self._streams.get(url)
        if stream is None:
            stream = self._rng.fork(url)
            self._streams[url] = stream
        return stream

    def before(self, ctx: FaultContext) -> None:  # pragma: no cover - default
        """Chance to short-circuit the request (endpoint unreachable)."""

    def after(self, ctx: FaultContext) -> None:  # pragma: no cover - default
        """Chance to mangle the response (delay, corrupt, replay)."""


# ---------------------------------------------------------------------------
# Availability faults
# ---------------------------------------------------------------------------
class FlapInjector(Injector):
    """Endpoints alternate between up and down on a seeded schedule.

    The schedule is a lazily extended sequence of (up, down) windows with
    exponentially distributed durations, generated once per URL from the
    injector's substream — so the schedule is a function of the seed and
    the URL alone, independent of how often it is queried.  Tests use
    :meth:`down_at` to recompute the exact injected availability and
    compare it against the ``up`` series the scraper wrote.
    """

    kind = "flap"

    def __init__(
        self,
        rng: DeterministicRng,
        mean_up_s: float = 30.0,
        mean_down_s: float = 10.0,
        min_window_s: float = 1.0,
    ) -> None:
        super().__init__(rng)
        if mean_up_s <= 0 or mean_down_s <= 0 or min_window_s <= 0:
            raise NetworkError("flap window means must be positive")
        self.mean_up_s = mean_up_s
        self.mean_down_s = mean_down_s
        self.min_window_s = min_window_s
        #: Per-URL list of window edge times (ns).  Windows alternate
        #: up/down starting with up: the endpoint is down in
        #: [edges[2k+1], edges[2k+2]).
        self._edges: Dict[str, List[int]] = {}

    def _extend(self, url: str, until_ns: int) -> List[int]:
        edges = self._edges.get(url)
        if edges is None:
            edges = [0]
            self._edges[url] = edges
        stream = self.stream(url)
        while edges[-1] <= until_ns:
            up = edges[-1] + int(
                max(self.min_window_s, stream.exponential(self.mean_up_s))
                * NANOS_PER_SEC
            )
            down = up + int(
                max(self.min_window_s, stream.exponential(self.mean_down_s))
                * NANOS_PER_SEC
            )
            edges.extend((up, down))
        return edges

    def down_at(self, url: str, now_ns: int) -> bool:
        """Whether the schedule has this URL down at ``now_ns``."""
        edges = self._extend(url, now_ns)
        # Find the window containing now_ns; windows alternate starting up.
        for index in range(len(edges) - 1):
            if edges[index] <= now_ns < edges[index + 1]:
                return index % 2 == 1
        return False

    def schedule(self, url: str, until_ns: int) -> List[Tuple[int, int]]:
        """The injected down windows (start, end) up to ``until_ns``."""
        edges = self._extend(url, until_ns)
        return [
            (edges[i], edges[i + 1])
            for i in range(1, len(edges) - 1, 2)
            if edges[i] <= until_ns
        ]

    def before(self, ctx: FaultContext) -> None:
        if self.down_at(ctx.url, ctx.now_ns):
            ctx.applied.append(self.kind)
            ctx.short_circuit(503, "fault: endpoint flapped down")


class PartitionInjector(Injector):
    """Hard network partitions: explicit unreachability windows per URL.

    Where :class:`FlapInjector` models an *endpoint* bouncing on a seeded
    schedule, a partition models the *network* between two monitors being
    cut — deliberately placed by the scenario, not drawn from a
    distribution.  Every request to a partitioned URL short-circuits to
    503 for the whole window, which is exactly what a remote-write client
    sees when its uplink's route is gone: it spills to its queue and
    drains on heal.  With a :class:`~repro.faults.plan.FaultPlan`
    attached, ``partition-begin``/``partition-heal`` markers land in the
    one journal at the window edges, so a run's partition history is
    byte-comparable like every other fault.
    """

    kind = "partition"

    def __init__(self, rng: DeterministicRng, plan=None) -> None:
        super().__init__(rng)
        self._plan = plan
        #: Per-URL sorted list of (start_ns, end_ns) cut windows.
        self._windows: Dict[str, List[Tuple[int, int]]] = {}

    def partition(self, url: str, start_ns: int, end_ns: int) -> None:
        """Cut ``url`` for ``[start_ns, end_ns)`` of virtual time."""
        if end_ns <= start_ns:
            raise NetworkError(
                f"empty partition window: [{start_ns}, {end_ns})"
            )
        self._windows.setdefault(url, []).append((start_ns, end_ns))
        self._windows[url].sort()
        if self._plan is not None:
            clock = self._plan.clock

            def begin() -> None:
                self._plan.record("partition-begin", url, method="NET")

            def heal() -> None:
                self._plan.record("partition-heal", url, method="NET")

            clock.call_at(start_ns, begin)
            clock.call_at(end_ns, heal)

    def windows(self, url: str) -> List[Tuple[int, int]]:
        """The configured cut windows for one URL."""
        return list(self._windows.get(url, ()))

    def active_at(self, url: str, now_ns: int) -> bool:
        """Whether ``url`` is partitioned away at ``now_ns``."""
        return any(
            start <= now_ns < end
            for start, end in self._windows.get(url, ())
        )

    def before(self, ctx: FaultContext) -> None:
        if self.active_at(ctx.url, ctx.now_ns):
            ctx.applied.append(self.kind)
            ctx.short_circuit(503, "fault: network partitioned")


# ---------------------------------------------------------------------------
# Latency faults
# ---------------------------------------------------------------------------
class DelayInjector(Injector):
    """With probability ``probability``, delay a response past a budget.

    The delay is uniform in ``[min_delay_s, max_delay_s)`` — configure the
    range above the consumer's timeout budget to model a hung exporter,
    below it to model mere slowness.
    """

    kind = "delay"

    def __init__(
        self,
        rng: DeterministicRng,
        probability: float = 0.1,
        min_delay_s: float = 1.5,
        max_delay_s: float = 5.0,
    ) -> None:
        super().__init__(rng)
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"bad probability: {probability}")
        if not 0 <= min_delay_s <= max_delay_s:
            raise NetworkError("bad delay range")
        self.probability = probability
        self.min_delay_s = min_delay_s
        self.max_delay_s = max_delay_s

    def after(self, ctx: FaultContext) -> None:
        stream = self.stream(ctx.url)
        if stream.chance(self.probability):
            ctx.applied.append(self.kind)
            ctx.latency_s += stream.uniform(self.min_delay_s, self.max_delay_s)


class SlowLinkInjector(Injector):
    """Every response pays the transfer time of a loaded, finite link.

    Wraps :class:`repro.net.network.Link`: the latency added is the link's
    end-to-end transfer time for the response body at the configured
    offered load, so saturating the link pushes scrape latency toward the
    link's clamped queueing delay — the §4 "saturated substrate" scenario.
    """

    kind = "slow-link"

    def __init__(self, rng: DeterministicRng, link: Link,
                 offered_bytes_per_s: float = 0.0) -> None:
        super().__init__(rng)
        if offered_bytes_per_s < 0:
            raise NetworkError(f"negative offered load: {offered_bytes_per_s}")
        self.link = link
        self.offered_bytes_per_s = offered_bytes_per_s

    def after(self, ctx: FaultContext) -> None:
        if ctx.response is None:
            return
        ctx.applied.append(self.kind)
        ctx.latency_s += self.link.transfer_time_s(
            len(ctx.response.body), self.offered_bytes_per_s
        )


class ClockSkewInjector(Injector):
    """A skewed, drifting exporter clock biases measured latency.

    Models an exporter whose clock runs fast or slow: any duration derived
    from exporter-side timestamps (which is how real scrape latency is
    often measured) picks up the skew.  Skew is ``offset + drift * t`` and
    can be negative; the resulting latency is clamped at zero.  Because the
    pull model stamps *samples* with the aggregator's clock, skew never
    corrupts the TSDB timeline — only the latency measurement — which the
    chaos suite asserts.
    """

    kind = "clock-skew"

    def __init__(self, rng: DeterministicRng, offset_s: float = 0.0,
                 drift_per_s: float = 0.0) -> None:
        super().__init__(rng)
        self.offset_s = offset_s
        self.drift_per_s = drift_per_s

    def skew_at(self, now_ns: int) -> float:
        """Skew in seconds at virtual time ``now_ns``."""
        return self.offset_s + self.drift_per_s * (now_ns / NANOS_PER_SEC)

    def after(self, ctx: FaultContext) -> None:
        skew = self.skew_at(ctx.now_ns)
        if skew:
            ctx.applied.append(self.kind)
            ctx.latency_s = max(0.0, ctx.latency_s + skew)


# ---------------------------------------------------------------------------
# Payload faults
# ---------------------------------------------------------------------------
#: Marker guaranteed to fail OpenMetrics parsing: a sample line whose
#: value is unparseable.  Tests grep for it to prove provenance.
CORRUPTION_MARKER = "x_fault_corrupted <<truncated>>"


class CorruptionInjector(Injector):
    """With probability ``probability``, corrupt the response body.

    Three modes, chosen per event from the substream: *truncate* (cut the
    body mid-line and append an unparseable marker), *garbage* (replace
    the body with line noise), *bitflip* (replace a value with an
    unparseable token).  All three are guaranteed to make
    ``parse_exposition`` raise, so a corrupted body can never contribute a
    sample — the invariant the chaos suite enforces.
    """

    kind = "corrupt"

    def __init__(self, rng: DeterministicRng, probability: float = 0.05) -> None:
        super().__init__(rng)
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"bad probability: {probability}")
        self.probability = probability

    def after(self, ctx: FaultContext) -> None:
        if ctx.response is None or not ctx.response.ok:
            return
        stream = self.stream(ctx.url)
        if not stream.chance(self.probability):
            return
        ctx.applied.append(self.kind)
        body = ctx.response.body
        mode = stream.choice(("truncate", "garbage", "bitflip"))
        if mode == "truncate" and body:
            cut = stream.randint(0, max(0, len(body) - 1))
            corrupted = body[:cut] + "\n" + CORRUPTION_MARKER + "\n"
        elif mode == "garbage":
            corrupted = "{{%s}}\n%s\n" % (stream.randint(0, 10**9),
                                          CORRUPTION_MARKER)
        else:
            corrupted = CORRUPTION_MARKER + "\n" + body
        ctx.response = HttpResponse(
            status=ctx.response.status, body=corrupted,
            latency_s=ctx.response.latency_s,
        )


class StaleReplayInjector(Injector):
    """With probability ``probability``, replay the previous response body.

    Models an exporter serving a cached/stale exposition (or a proxy
    replaying a buffered response): counters appear frozen — or rewound —
    for one scrape.  The first request to a URL always passes through
    (there is nothing to replay yet).
    """

    kind = "stale-replay"

    def __init__(self, rng: DeterministicRng, probability: float = 0.05) -> None:
        super().__init__(rng)
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"bad probability: {probability}")
        self.probability = probability
        self._previous: Dict[str, str] = {}

    def after(self, ctx: FaultContext) -> None:
        if ctx.response is None or not ctx.response.ok:
            return
        stream = self.stream(ctx.url)
        previous = self._previous.get(ctx.url)
        replay = previous is not None and stream.chance(self.probability)
        if replay:
            ctx.applied.append(self.kind)
            ctx.response = HttpResponse(
                status=ctx.response.status, body=previous,
                latency_s=ctx.response.latency_s,
            )
        else:
            self._previous[ctx.url] = ctx.response.body
