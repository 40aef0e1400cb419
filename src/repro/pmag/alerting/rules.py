"""Alerting rules: expr + ``for_`` duration with a pending->firing machine.

An :class:`AlertingRule` evaluates a query expression each cycle; every
label set the expression returns is an *alert instance*.  New instances
enter ``pending``; after ``for_`` seconds of continuous presence they
transition to ``firing``; instances that disappear from the result are
``resolved`` (if firing) or silently ``expired`` (if still pending).

Durability mirrors Prometheus: every evaluation writes the synthetic
``ALERTS`` and ``ALERTS_FOR_STATE`` series through the normal append path
(and therefore through the WAL when one is attached), and
:meth:`AlertingRule.restore` rebuilds the active set from those series
after a crash — preserving each instance's original ``active_since`` so
a kill/resurrect mid-``for_`` window neither double-fires a firing alert
nor resets a pending one back to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import TsdbError
from repro.pmag.alerting.state import (
    EVENT_EXPIRED,
    EVENT_FIRING,
    EVENT_PENDING,
    EVENT_RESOLVED,
    STATE_FIRING,
    STATE_PENDING,
    AlertInstance,
)
from repro.pmag.model import Labels, Matcher, METRIC_NAME_LABEL
from repro.simkernel.clock import NANOS_PER_SEC

#: Synthetic series names, as in Prometheus.  ``ALERTS`` carries one
#: sample per active instance per evaluation (labelled with
#: ``alertstate``); ``ALERTS_FOR_STATE`` carries the instance's
#: ``active_since`` timestamp as its value, which is what restore reads.
ALERTS_METRIC = "ALERTS"
ALERTS_FOR_STATE_METRIC = "ALERTS_FOR_STATE"

#: Tombstone value written to ``ALERTS_FOR_STATE`` when an instance
#: leaves the active set, so restore can tell "resolved before the
#: crash" from "active at the crash".
_RESOLVED_TOMBSTONE = -1.0


def _state_labels(instance: AlertInstance, metric: str, **extra: str) -> Labels:
    """An instance's labels under ``ALERTS`` or ``ALERTS_FOR_STATE``."""
    return Labels({**dict(instance.labels.items()),
                   METRIC_NAME_LABEL: metric, **extra})


@dataclass(frozen=True)
class AlertingRule:
    """One alerting rule.

    The frozen dataclass holds only *configuration*; evaluation state
    lives in the mutable ``_active`` dict (excluded from equality), and
    the deployment clones rules per monitor build so a resurrected
    monitor starts from explicitly restored state, never from leftovers.
    """

    name: str
    expr: str
    for_s: float = 0.0
    labels: Dict[str, str] = field(default_factory=dict)
    annotations: Dict[str, str] = field(default_factory=dict)
    _active: Dict[tuple, AlertInstance] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise TsdbError("alerting rule needs a name")
        if self.for_s < 0:
            raise TsdbError(f"negative for_ duration: {self.for_s}")

    @property
    def for_ns(self) -> int:
        """The ``for_`` duration in virtual nanoseconds."""
        return int(self.for_s * NANOS_PER_SEC)

    def clone(self) -> "AlertingRule":
        """A fresh copy with empty evaluation state."""
        return AlertingRule(
            name=self.name,
            expr=self.expr,
            for_s=self.for_s,
            labels=dict(self.labels),
            annotations=dict(self.annotations),
        )

    def active(self) -> List[AlertInstance]:
        """Active instances, in deterministic (label-sorted) order."""
        return [self._active[key] for key in sorted(self._active)]

    def firing(self) -> List[AlertInstance]:
        """Active instances currently in the firing state."""
        return [
            inst for inst in self.active() if inst.state == STATE_FIRING
        ]

    def _instance_labels(self, series_labels: Labels) -> Labels:
        mapping = dict(series_labels.items())
        mapping.pop(METRIC_NAME_LABEL, None)
        mapping.update(self.labels)
        mapping["alertname"] = self.name
        return Labels(mapping)

    def evaluate(
        self, engine, tsdb, now_ns: int
    ) -> List[Tuple[str, AlertInstance]]:
        """Run one evaluation cycle; returns state-transition events.

        Events are ``(kind, instance)`` pairs in deterministic order:
        result-vector order for pending/firing transitions (the vector is
        label-sorted by the engine), then label-sorted order for
        departures.  A brand-new instance always yields a ``pending``
        event first — even a ``for_=0`` rule emits pending *then* firing
        in the same cycle, so the pending->firing ordering is a journal
        invariant, not a timing accident.
        """
        # Parse through the engine's LRU plan cache (a lookup after the
        # first cycle) so rule traces keep their query.parse spans.
        plan = engine.plan(self.expr)
        vector = engine.instant_plan(plan, now_ns)
        events: List[Tuple[str, AlertInstance]] = []
        writes: List[Tuple[Labels, int, float]] = []
        seen = set()
        for series_labels, value in vector:
            out = self._instance_labels(series_labels)
            key = out.items()
            if key in seen:
                continue  # collapsed output label sets: first wins
            seen.add(key)
            instance = self._active.get(key)
            if instance is None:
                instance = AlertInstance(
                    labels=out, active_since_ns=now_ns, value=value
                )
                self._active[key] = instance
                events.append((EVENT_PENDING, instance))
            instance.value = value
            if (
                instance.state == STATE_PENDING
                and now_ns - instance.active_since_ns >= self.for_ns
            ):
                instance.state = STATE_FIRING
                instance.fired_at_ns = now_ns
                events.append((EVENT_FIRING, instance))
            writes.append((_state_labels(
                instance, ALERTS_METRIC, alertstate=instance.state),
                now_ns, 1.0))
            writes.append((_state_labels(instance, ALERTS_FOR_STATE_METRIC),
                           now_ns, float(instance.active_since_ns)))
        for key in sorted(self._active):
            if key in seen:
                continue
            instance = self._active.pop(key)
            kind = (
                EVENT_RESOLVED if instance.state == STATE_FIRING
                else EVENT_EXPIRED
            )
            events.append((kind, instance))
            writes.append((_state_labels(instance, ALERTS_FOR_STATE_METRIC),
                           now_ns, _RESOLVED_TOMBSTONE))
        if writes:
            # One commit per pass; at a repeated instant (manual +
            # scheduled eval) the duplicates are dropped.
            tsdb.append_batch(writes)
        return events

    def restore(self, tsdb, now_ns: int,
                tolerance_ns: int) -> List[AlertInstance]:
        """Rebuild the active set from recovered state series.

        Reads ``ALERTS_FOR_STATE`` for this alert name over the last
        ``tolerance_ns`` of recovered data.  A series whose newest value
        is the resolved tombstone was inactive at the crash and is
        skipped; otherwise the instance is reconstructed with its
        original ``active_since`` (downtime counts toward ``for_``, as
        in Prometheus outage tolerance), firing iff the ``ALERTS``
        firing series has a sample at the same evaluation instant.
        """
        restored: List[AlertInstance] = []
        start = max(0, now_ns - tolerance_ns)
        matchers = [
            Matcher.eq(METRIC_NAME_LABEL, ALERTS_FOR_STATE_METRIC),
            Matcher.eq("alertname", self.name),
        ]
        for series in tsdb.select(matchers, start, now_ns):
            if not series.samples:
                continue
            last = series.samples[-1]
            if last.value < 0:
                continue  # tombstone: resolved before the crash
            mapping = dict(series.labels.items())
            mapping.pop(METRIC_NAME_LABEL, None)
            out = Labels(mapping)
            firing_labels = dict(series.labels.items())
            firing_labels[METRIC_NAME_LABEL] = ALERTS_METRIC
            firing_labels["alertstate"] = STATE_FIRING
            was_firing = any(
                s.samples
                for s in tsdb.select(
                    [Matcher.eq(k, v) for k, v in
                     sorted(firing_labels.items())],
                    last.time_ns, last.time_ns,
                )
            )
            instance = AlertInstance(
                labels=out,
                active_since_ns=int(last.value),
                state=STATE_FIRING if was_firing else STATE_PENDING,
                restored=True,
            )
            if was_firing:
                instance.fired_at_ns = last.time_ns
            self._active[out.items()] = instance
            restored.append(instance)
        return restored


def burn_rate_rules(
    metric: str,
    fast_threshold: float,
    slow_threshold: Optional[float] = None,
    *,
    name_prefix: str = "SloBurnRate",
    fast_window: str = "1m",
    slow_window: str = "5m",
    fast_for_s: float = 30.0,
    slow_for_s: float = 120.0,
    labels: Optional[Mapping[str, str]] = None,
) -> List[AlertingRule]:
    """A multi-window SLO burn-rate pair over one counter metric.

    The fast window catches sharp error budget burn quickly (page), the
    slow window catches sustained burn at a lower threshold (ticket) —
    the standard two-window SLO alerting shape.
    """
    if slow_threshold is None:
        slow_threshold = fast_threshold / 4.0
    base = dict(labels or {})
    fast = AlertingRule(
        name=f"{name_prefix}Fast",
        expr=f"rate({metric}[{fast_window}]) > {fast_threshold}",
        for_s=fast_for_s,
        labels={**base, "severity": "page", "window": fast_window},
    )
    slow = AlertingRule(
        name=f"{name_prefix}Slow",
        expr=f"rate({metric}[{slow_window}]) > {slow_threshold}",
        for_s=slow_for_s,
        labels={**base, "severity": "ticket", "window": slow_window},
    )
    return [fast, slow]
