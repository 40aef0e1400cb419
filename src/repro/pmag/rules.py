"""Recording and alerting rules: precomputed series plus alert evaluation.

Prometheus-style recording rules evaluate an expression at every tick of
their group and write the result back into the TSDB under a new metric
name.  TEEMon deployments use them for the expensive dashboard queries
(per-process syscall rates, eviction rates) so panels read cheap
precomputed series.

Rule-group semantics follow Prometheus: rules in a group evaluate in
order at the same instant, and each rule's output is committed before the
next rule evaluates, so a later rule reads an earlier rule's output at
that instant.  Groups may mix recording rules with
:class:`~repro.pmag.alerting.rules.AlertingRule` instances — alerting
rules evaluate on the same cadence and feed their state-machine events
to the group's ``alert_sink`` (the notification router).

Cursors and bounded backfill
----------------------------
Each recording rule keeps a *cursor*: the virtual timestamp of the last
tick it recorded.  A tick at most one interval after the cursor records
one instant, *now*.  After a longer outage — ``gap`` whole intervals
since the cursor — the tick records the last
``min(gap, MAX_BACKFILL_STEPS)`` steps of the rule's grid ending at
*now*, oldest first; those extra steps count in
``backfilled_steps_total``.  Steps older than that are abandoned, and the
gap counts in ``gap_fallbacks_total``.  A repeated tick at the same
instant records nothing new: duplicate timestamps are first-write-wins.

With a WAL attached, every tick appends the rule's cursor as a cursor
frame (kind 2) keyed ``"{group}/{record}"``.  A resurrected monitor seeds
the recovered cursors (:meth:`RuleEvaluator.seed_cursors`) and backfills
the outage from where the dead one stopped; a lost cursor only forgoes
that backfill, never recorded data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TsdbError
from repro.openmetrics.types import _LABEL_RE, _NAME_RE
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock

DEFAULT_RULE_INTERVAL_NS = 15 * NANOS_PER_SEC

#: Modelled cost of one rule-step evaluation and of each recorded sample
#: (virtual time; must be deterministic because the self-exporter scrapes
#: the resulting ``teemon_rule_eval_seconds`` into the TSDB).
RULE_EVAL_BASE_NS = 100_000
RULE_EVAL_NS_PER_SAMPLE = 1_000

#: Most grid steps one tick records for a rule (*now* included).
MAX_BACKFILL_STEPS = 8


@dataclass(frozen=True)
class RecordingRule:
    """One rule: evaluate ``expr`` and record it as ``record``."""

    record: str
    expr: str
    static_labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Prometheus' rule format: ``record`` is a metric name and the
        # static labels are valid, non-reserved label names.  Recorded
        # names also carry the level:metric:op shape — at least one colon
        # keeps them distinguishable from scraped series.
        if ":" not in self.record or not _NAME_RE.fullmatch(self.record):
            raise TsdbError(
                f"recording rule name must be a metric name containing "
                f"':': {self.record!r}"
            )
        for label in self.static_labels:
            if not _LABEL_RE.fullmatch(label) or label.startswith("__"):
                raise TsdbError(
                    f"invalid static label name on {self.record}: {label!r}"
                )


def is_recorded_output(name: str) -> bool:
    """Whether a metric name is a recording-rule output.

    The Prometheus ``level:metric:op`` naming convention (enforced at
    :class:`RecordingRule` construction) makes this a pure name test —
    which is what lets the remote-write aggregate pushdown decide
    ship/skip per series without consulting the rule set.
    """
    return ":" in name


def _rule_key(rule) -> str:
    """Group-unique identity for recording and alerting rules alike."""
    if isinstance(rule, RecordingRule):
        return rule.record
    return f"alert:{rule.name}"


class RuleGroup:
    """An ordered set of rules evaluated together on one cadence.

    ``rules`` may mix :class:`RecordingRule` with alerting rules (any
    object exposing ``name``/``expr`` and an
    ``evaluate(engine, tsdb, now_ns) -> events`` method); alerting
    events go to :attr:`alert_sink` when one is attached.
    """

    def __init__(
        self,
        name: str,
        rules: Sequence[object],
        interval_ns: int = DEFAULT_RULE_INTERVAL_NS,
    ) -> None:
        if not name:
            raise TsdbError("rule group needs a name")
        if interval_ns <= 0:
            raise TsdbError("rule interval must be positive")
        seen = set()
        for rule in rules:
            key = _rule_key(rule)
            if key in seen:
                raise TsdbError(f"duplicate rule in group: {key}")
            seen.add(key)
        self.name = name
        self.rules = list(rules)
        self.interval_ns = interval_ns
        self.last_error: Optional[str] = None
        #: Per-rule cursor: virtual ns of the last tick recorded.
        self.cursors: Dict[str, int] = {}
        #: Static-label collisions observed (the rule still overwrites —
        #: pinned behaviour — but the overwrite is now visible).
        self.conflicts_total = 0
        #: Missed grid steps recovered by backfill.
        self.backfilled_steps_total = 0
        #: Gaps wider than :data:`MAX_BACKFILL_STEPS` (older steps
        #: abandoned).
        self.gap_fallbacks_total = 0
        #: Modelled evaluation time (deterministic, exported as
        #: ``teemon_rule_eval_seconds``).
        self.eval_modelled_ns = 0
        #: Receives ``(events, now_ns)`` from alerting rules.
        self.alert_sink: Optional[Callable] = None
        #: WAL (or sharded WAL) cursor frames are persisted through.
        self.wal = None

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _record_vector(
        self, rule: RecordingRule, vector, tsdb, time_ns: int
    ) -> int:
        """Commit one instant's output as one batch, before the next rule
        evaluates (it may read this one); returns samples recorded."""
        entries = []
        seen_out = set()
        for labels, value in vector:
            mapping = dict(labels.items())
            mapping[METRIC_NAME_LABEL] = rule.record
            for key, val in rule.static_labels.items():
                if key in mapping and mapping[key] != val:
                    # A static label stomping a series label silently
                    # merges distinct input series under one output
                    # label set.  The overwrite is pinned behaviour
                    # (dashboards rely on static labels winning), but it
                    # must be *visible*: count it.
                    self.conflicts_total += 1
                mapping[key] = val
            out = Labels(mapping)
            if out in seen_out:
                # Two input series collapsed onto one output label set;
                # first wins deterministically (vector order is
                # label-sorted), the collision is counted.
                self.conflicts_total += 1
                continue
            seen_out.add(out)
            entries.append((out, time_ns, value))
        if not entries:
            return 0
        # A duplicate timestamp is rejected: the first write wins.
        return len(entries) - len(tsdb.append_batch(entries))

    def _recording_steps(self, key: str, now_ns: int) -> List[int]:
        """The instants this tick records for a rule, oldest first."""
        cursor = self.cursors.get(key)
        missed = 0 if cursor is None else (now_ns - cursor) // self.interval_ns
        if missed <= 1:
            return [now_ns]
        steps = min(missed, MAX_BACKFILL_STEPS)
        if missed > MAX_BACKFILL_STEPS:
            self.gap_fallbacks_total += 1
        self.backfilled_steps_total += steps - 1
        return [
            now_ns - back * self.interval_ns
            for back in range(steps - 1, -1, -1)
        ]

    def _fault(self, key: str, exc: Exception) -> None:
        """Rule-level fault barrier: one bad rule must not silence the
        rest of the group."""
        self.last_error = f"{key}: {exc}"

    def evaluate(self, engine: QueryEngine, tsdb: Tsdb, now_ns: int) -> int:
        """Evaluate every rule at ``now_ns``; returns samples recorded.

        A failing rule is recorded in :attr:`last_error` and skipped.
        """
        recorded = 0
        for rule in self.rules:
            if isinstance(rule, RecordingRule):
                recorded += self._evaluate_recording(engine, tsdb, rule, now_ns)
            else:
                self._evaluate_alerting(engine, tsdb, rule, now_ns)
        return recorded

    def _evaluate_recording(
        self, engine, tsdb, rule: RecordingRule, now_ns: int
    ) -> int:
        key = rule.record
        try:
            # Through the engine's plan cache every tick: the repeat
            # parse is a lookup.
            plan = engine.parse(rule.expr)
        except Exception as exc:  # noqa: BLE001 - rule-level fault barrier
            self._fault(key, exc)
            return 0
        written = 0
        for step_ns in self._recording_steps(key, now_ns):
            try:
                vector = engine.instant_plan(plan, step_ns)
            except Exception as exc:  # noqa: BLE001
                self._fault(key, exc)
                break
            count = self._record_vector(rule, vector, tsdb, step_ns)
            written += count
            self.eval_modelled_ns += (
                RULE_EVAL_BASE_NS + RULE_EVAL_NS_PER_SAMPLE * count
            )
        self.cursors[key] = now_ns
        if self.wal is not None:
            self.wal.append_cursor(f"{self.name}/{key}", now_ns)
        return written

    def _evaluate_alerting(self, engine, tsdb, rule, now_ns: int) -> None:
        try:
            events = rule.evaluate(engine, tsdb, now_ns)
        except Exception as exc:  # noqa: BLE001 - rule-level fault barrier
            self._fault(_rule_key(rule), exc)
            return
        self.eval_modelled_ns += (
            RULE_EVAL_BASE_NS
            + RULE_EVAL_NS_PER_SAMPLE * len(rule.active())
        )
        if events and self.alert_sink is not None:
            self.alert_sink(events, now_ns)


class RuleEvaluator:
    """Runs rule groups on the virtual clock."""

    def __init__(
        self,
        clock: VirtualClock,
        engine: QueryEngine,
        tsdb: Tsdb,
        wal=None,
        alert_sink: Optional[Callable] = None,
    ) -> None:
        self._clock = clock
        self._engine = engine
        self._tsdb = tsdb
        self._groups: List[RuleGroup] = []
        self._timers = {}
        self._running = False
        self.wal = wal
        self.alert_sink = alert_sink
        self.samples_recorded = 0

    def add_group(self, group: RuleGroup) -> None:
        """Register a group; scheduled when the evaluator starts.

        The evaluator's WAL and alert sink are injected into the group
        unless the group already carries its own.
        """
        if any(g.name == group.name for g in self._groups):
            raise TsdbError(f"rule group already registered: {group.name}")
        if group.wal is None:
            group.wal = self.wal
        if group.alert_sink is None:
            group.alert_sink = self.alert_sink
        self._groups.append(group)
        if self._running:
            self._schedule(group)

    def seed_cursors(self, cursors: Dict[str, int]) -> None:
        """Restore recording-rule cursors recovered from the WAL.

        Keys are ``"{group}/{record}"`` as written by the groups; keys
        naming unknown groups or rules are ignored (a rule removed from
        the config must not wedge recovery).
        """
        for group in self._groups:
            prefix = f"{group.name}/"
            for key, cursor_ns in cursors.items():
                if not key.startswith(prefix):
                    continue
                record = key[len(prefix):]
                if any(
                    isinstance(rule, RecordingRule) and rule.record == record
                    for rule in group.rules
                ):
                    group.cursors[record] = cursor_ns

    def evaluate_all_once(self) -> int:
        """Evaluate every group now (manual trigger)."""
        now = self._clock.now_ns
        return sum(
            group.evaluate(self._engine, self._tsdb, now)
            for group in self._groups
        )

    def stats(self) -> Dict[str, object]:
        """Aggregate rule statistics for the self-exporter."""
        return {
            "eval_seconds": sum(
                g.eval_modelled_ns for g in self._groups
            ) / NANOS_PER_SEC,
            "conflicts_total": sum(g.conflicts_total for g in self._groups),
            "backfilled_steps_total": sum(
                g.backfilled_steps_total for g in self._groups
            ),
            "gap_fallbacks_total": sum(
                g.gap_fallbacks_total for g in self._groups
            ),
            "samples_recorded": self.samples_recorded,
        }

    def start(self) -> None:
        """Begin periodic evaluation."""
        if self._running:
            raise TsdbError("rule evaluator already running")
        self._running = True
        for group in self._groups:
            self._schedule(group)

    def stop(self) -> None:
        """Stop periodic evaluation."""
        self._running = False
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()

    def _schedule(self, group: RuleGroup) -> None:
        def tick() -> None:
            self.samples_recorded += group.evaluate(
                self._engine, self._tsdb, self._clock.now_ns
            )

        self._timers[group.name] = self._clock.call_every(
            group.interval_ns, tick
        )
