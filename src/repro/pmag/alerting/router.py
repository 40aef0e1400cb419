"""Notification routing: grouping, dedup, and journalled delivery.

The :class:`NotificationRouter` is the Alertmanager-shaped half of the
alerting engine.  It consumes state-machine events from the alerting
rules, groups firing alerts per routing-tree node, waits out
``group_wait``/``group_interval`` on the virtual clock, filters silenced
and inhibited alerts, and delivers webhook notifications through the
simulated :class:`~repro.net.http.HttpNetwork` — which means PR 2's
fault injectors (flap, delay, slow-link) apply to notification delivery
exactly as they do to scrapes, and deliveries get the same hardening:
a timeout budget against the response's modelled latency and jittered
exponential retries on the virtual clock.

Every event and every delivery outcome lands in the shared
:class:`~repro.pmag.alerting.state.AlertJournal`, so the whole
notification history is byte-comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TsdbError
from repro.net.http import HttpNetwork
from repro.pmag.alerting.silences import Inhibitor, SilenceStore
from repro.pmag.alerting.state import (
    EVENT_EXPIRED,
    EVENT_FIRING,
    EVENT_RESOLVED,
    STATE_FIRING,
    AlertInstance,
    AlertJournal,
    canonical_labels,
)
from repro.pmag.model import Labels
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng

#: Notification outcomes counted per receiver (exported as
#: ``teemon_notifications_total{receiver, outcome}``).
OUTCOME_DELIVERED = "delivered"
OUTCOME_FAILED = "failed"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_RETRY = "retry"
OUTCOME_SILENCED = "silenced"
OUTCOME_INHIBITED = "inhibited"


@dataclass(frozen=True)
class Receiver:
    """A notification destination.

    With a ``url`` deliveries POST to it over the simulated network;
    without one the receiver is journal-only (deliveries succeed
    immediately and exist purely as journal lines) — the deterministic
    stand-in for a pager.
    """

    name: str
    url: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TsdbError("receiver needs a name")


@dataclass(frozen=True)
class Route:
    """One node of the Alertmanager-style routing tree.

    An alert descends from the root: the first matching child wins
    unless that child sets ``continue_``, in which case later siblings
    are also consulted; a node with no matching child delivers to its
    own receiver.  ``match`` is exact label equality.
    """

    receiver: str
    match: Tuple[Tuple[str, str], ...] = ()
    group_by: Tuple[str, ...] = ("alertname",)
    group_wait_s: float = 0.0
    group_interval_s: float = 30.0
    repeat_interval_s: Optional[float] = None
    routes: Tuple["Route", ...] = ()
    continue_: bool = False

    def __post_init__(self) -> None:
        if not self.receiver:
            raise TsdbError("route needs a receiver")
        if self.group_wait_s < 0 or self.group_interval_s <= 0:
            raise TsdbError("route intervals must be non-negative/positive")
        if self.repeat_interval_s is not None and self.repeat_interval_s <= 0:
            raise TsdbError("repeat interval must be positive")

    def _matches(self, labels: Labels) -> bool:
        return all(labels.get(key) == value for key, value in self.match)

    def resolve(self, labels: Labels) -> List["Route"]:
        """The delivery routes for an alert, Alertmanager descent rules."""
        if not self._matches(labels):
            return []
        matched: List[Route] = []
        for child in self.routes:
            sub = child.resolve(labels)
            if sub:
                matched.extend(sub)
                if not child.continue_:
                    break
        return matched or [self]

    def receivers_named(self) -> List[str]:
        """Every receiver name referenced by this subtree."""
        names = [self.receiver]
        for child in self.routes:
            names.extend(child.receivers_named())
        return names


@dataclass
class _Group:
    """Mutable per-(route, group-key) notification state."""

    alerts: Dict[tuple, AlertInstance] = field(default_factory=dict)
    resolved: List[AlertInstance] = field(default_factory=list)
    version: int = 0
    notified_version: int = 0
    last_notified_ns: Optional[int] = None
    #: True while at least one alert in the group was muted (silenced or
    #: inhibited) at the last flush; keeps the flush timer re-arming so
    #: a silence expiring mid-incident surfaces the alert promptly.
    muted: bool = False


class NotificationRouter:
    """Routes alert events to receivers with grouping and dedup."""

    def __init__(
        self,
        clock: VirtualClock,
        network: HttpNetwork,
        route: Route,
        receivers: Sequence[Receiver],
        rng: Optional[DeterministicRng] = None,
        journal: Optional[AlertJournal] = None,
        silences: Optional[SilenceStore] = None,
        inhibitor: Optional[Inhibitor] = None,
        timeout_s: float = 1.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_jitter: float = 0.5,
    ) -> None:
        if timeout_s <= 0:
            raise TsdbError(f"notify timeout must be positive, got {timeout_s}")
        if max_retries < 0:
            raise TsdbError(f"negative retry count: {max_retries}")
        self._clock = clock
        self._network = network
        self.route = route
        self._receivers: Dict[str, Receiver] = {}
        for receiver in receivers:
            if receiver.name in self._receivers:
                raise TsdbError(f"duplicate receiver: {receiver.name}")
            self._receivers[receiver.name] = receiver
        for name in route.receivers_named():
            if name not in self._receivers:
                raise TsdbError(f"route references unknown receiver: {name}")
        self.journal = journal if journal is not None else AlertJournal()
        self.silences = silences if silences is not None else SilenceStore()
        self.inhibitor = inhibitor if inhibitor is not None else Inhibitor()
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self._rng = (rng or DeterministicRng(0)).fork("notify-backoff")
        self._firing: Dict[tuple, Labels] = {}
        self._groups: Dict[Tuple[Route, tuple], _Group] = {}
        self._timers: Dict[Tuple[Route, tuple], object] = {}
        self._stopped = False
        self.counters: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------
    def handle(
        self, events: Sequence[Tuple[str, AlertInstance]], now_ns: int
    ) -> None:
        """Consume one evaluation cycle's state-machine events."""
        for kind, instance in events:
            self.journal.record_event(now_ns, kind, instance)
            key = instance.identity()
            if kind == EVENT_FIRING:
                self._firing[key] = instance.labels
                self._enqueue(instance, now_ns)
            elif kind in (EVENT_RESOLVED, EVENT_EXPIRED):
                self._firing.pop(key, None)
                if kind == EVENT_RESOLVED:
                    self._dequeue(instance, now_ns)

    def firing_labels(self) -> List[Labels]:
        """The currently firing label sets, label-sorted."""
        return [self._firing[key] for key in sorted(self._firing)]

    def _group_key(self, route: Route, labels: Labels) -> tuple:
        return tuple((name, labels.get(name)) for name in route.group_by)

    def _enqueue(self, instance: AlertInstance, now_ns: int) -> None:
        for route in self.route.resolve(instance.labels):
            gid = (route, self._group_key(route, instance.labels))
            group = self._groups.setdefault(gid, _Group())
            group.alerts[instance.identity()] = instance
            group.version += 1
            self._arm(gid, now_ns)

    def _dequeue(self, instance: AlertInstance, now_ns: int) -> None:
        for route in self.route.resolve(instance.labels):
            gid = (route, self._group_key(route, instance.labels))
            group = self._groups.get(gid)
            if group is None or instance.identity() not in group.alerts:
                continue
            del group.alerts[instance.identity()]
            group.resolved.append(instance)
            group.version += 1
            self._arm(gid, now_ns)

    # ------------------------------------------------------------------
    # Flush timing
    # ------------------------------------------------------------------
    def _arm(self, gid: Tuple[Route, tuple], now_ns: int) -> None:
        if self._stopped or gid in self._timers:
            return
        route, _ = gid
        group = self._groups[gid]
        if group.last_notified_ns is None:
            delay_ns = int(route.group_wait_s * NANOS_PER_SEC)
        else:
            next_ns = group.last_notified_ns + int(
                route.group_interval_s * NANOS_PER_SEC
            )
            delay_ns = max(0, next_ns - now_ns)
        self._timers[gid] = self._clock.call_later(
            delay_ns, lambda: self._flush(gid)
        )

    def _repeat_due(self, route: Route, group: _Group, now_ns: int) -> bool:
        if route.repeat_interval_s is None or group.last_notified_ns is None:
            return False
        if not group.alerts:
            return False
        repeat_ns = int(route.repeat_interval_s * NANOS_PER_SEC)
        return now_ns - group.last_notified_ns >= repeat_ns

    def _flush(self, gid: Tuple[Route, tuple]) -> None:
        self._timers.pop(gid, None)
        if self._stopped:
            return
        route, group_key = gid
        group = self._groups[gid]
        now_ns = self._clock.now_ns
        dirty = group.version != group.notified_version
        recheck = group.muted and bool(group.alerts)
        if not dirty and not recheck and not self._repeat_due(
            route, group, now_ns
        ):
            return
        version = group.version
        subject = ",".join(f"{k}={v}" for k, v in group_key)
        firing_set = self.firing_labels()
        deliverable: List[AlertInstance] = []
        newly_unmuted = False
        group_was_muted = group.muted
        group.muted = False
        for key in sorted(group.alerts):
            instance = group.alerts[key]
            label_text = canonical_labels(instance.labels)
            silence = self.silences.covering(instance.labels, now_ns)
            if silence is not None:
                group.muted = True
                if dirty:
                    self.journal.record(
                        now_ns, "notify-silenced", label_text,
                        silence.comment or "silenced",
                    )
                    self._count(route.receiver, OUTCOME_SILENCED)
                continue
            if self.inhibitor.is_inhibited(instance.labels, firing_set):
                group.muted = True
                if dirty:
                    self.journal.record(
                        now_ns, "notify-inhibited", label_text
                    )
                    self._count(route.receiver, OUTCOME_INHIBITED)
                continue
            deliverable.append(instance)
        if group_was_muted and deliverable:
            newly_unmuted = True
        resolved = list(group.resolved)
        group.resolved.clear()
        group.notified_version = version
        if (dirty or newly_unmuted or self._repeat_due(
            route, group, now_ns
        )) and (deliverable or resolved):
            group.last_notified_ns = now_ns
            body_lines = [
                f"firing {canonical_labels(i.labels)}" for i in deliverable
            ] + [
                f"resolved {canonical_labels(i.labels)}" for i in resolved
            ]
            self._deliver(
                route.receiver, subject, "\n".join(body_lines),
                len(deliverable), len(resolved), attempt=0,
            )
        if group.alerts and (
            group.muted or route.repeat_interval_s is not None
        ):
            interval_s = (
                route.group_interval_s if group.muted
                else route.repeat_interval_s
            )
            self._timers[gid] = self._clock.call_later(
                int(interval_s * NANOS_PER_SEC),
                lambda: self._flush(gid),
            )

    # ------------------------------------------------------------------
    # Delivery (timeout budget + jittered retries)
    # ------------------------------------------------------------------
    def _deliver(
        self, receiver_name: str, subject: str, body: str,
        n_firing: int, n_resolved: int, attempt: int,
    ) -> None:
        receiver = self._receivers[receiver_name]
        detail = f"firing={n_firing} resolved={n_resolved}"
        now_ns = self._clock.now_ns
        if receiver.url is None:
            self.journal.record(
                now_ns, "notify-delivered", receiver_name, detail
            )
            self._count(receiver_name, OUTCOME_DELIVERED)
            return
        response = self._network.post_url(receiver.url, body)
        latency_s = getattr(response, "latency_s", 0.0)
        timed_out = latency_s > self.timeout_s
        if timed_out:
            self.journal.record(
                self._clock.now_ns, "notify-timeout", receiver_name,
                f"attempt={attempt}",
            )
            self._count(receiver_name, OUTCOME_TIMEOUT)
        if response.ok and not timed_out:
            self.journal.record(
                self._clock.now_ns, "notify-delivered", receiver_name,
                f"{detail} attempt={attempt}",
            )
            self._count(receiver_name, OUTCOME_DELIVERED)
            return
        if attempt < self.max_retries:
            delay_s = self.backoff_base_s * (2 ** attempt)
            if self.backoff_jitter:
                delay_s *= 1.0 + self.backoff_jitter * (
                    2.0 * self._rng.random() - 1.0
                )
            self._count(receiver_name, OUTCOME_RETRY)
            self._clock.call_later(
                int(delay_s * NANOS_PER_SEC),
                lambda: self._retry(
                    receiver_name, subject, body,
                    n_firing, n_resolved, attempt + 1,
                ),
            )
            return
        self.journal.record(
            self._clock.now_ns, "notify-failed", receiver_name,
            f"{detail} attempts={attempt + 1}",
        )
        self._count(receiver_name, OUTCOME_FAILED)

    def _retry(self, receiver_name: str, subject: str, body: str,
               n_firing: int, n_resolved: int, attempt: int) -> None:
        if self._stopped:
            return
        self.journal.record(
            self._clock.now_ns, "notify-retry", receiver_name,
            f"attempt={attempt}",
        )
        self._deliver(
            receiver_name, subject, body, n_firing, n_resolved, attempt
        )

    def _count(self, receiver: str, outcome: str) -> None:
        key = (receiver, outcome)
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def restore_active(
        self, instances: Sequence[AlertInstance], now_ns: int
    ) -> None:
        """Seed router state from crash-restored instances.

        Restored firing alerts enter the firing set and their groups as
        *already notified* — the pre-crash router delivered them, and
        re-notifying after every resurrect is exactly the double-fire
        the chaos suite forbids.  They still repeat on
        ``repeat_interval`` and still resolve normally.
        """
        for instance in instances:
            self.journal.record(
                now_ns, "alert-restored",
                canonical_labels(instance.labels),
                f"state={instance.state}",
            )
            if instance.state != STATE_FIRING:
                continue
            key = instance.identity()
            self._firing[key] = instance.labels
            for route in self.route.resolve(instance.labels):
                gid = (route, self._group_key(route, instance.labels))
                group = self._groups.setdefault(gid, _Group())
                group.alerts[key] = instance
                group.version += 1
                group.notified_version = group.version
                group.last_notified_ns = now_ns
                if (route.repeat_interval_s is not None
                        and gid not in self._timers):
                    self._timers[gid] = self._clock.call_later(
                        int(route.repeat_interval_s * NANOS_PER_SEC),
                        lambda gid=gid: self._flush(gid),
                    )

    def stop(self) -> None:
        """Cancel all pending flush timers (monitor stop/kill)."""
        self._stopped = True
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def stats(self) -> Dict[str, object]:
        """Counters for the self-exporter."""
        return {
            "notifications": dict(self.counters),
            "firing": len(self._firing),
            "groups": len(self._groups),
        }
