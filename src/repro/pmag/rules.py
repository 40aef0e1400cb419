"""Recording and alerting rules: precomputed series plus alert evaluation.

Prometheus-style recording rules evaluate an expression on a cadence and
write the result back into the TSDB under a new metric name.  TEEMon-style
deployments use them for the expensive dashboard queries (per-process
syscall rates, eviction rates) so panels read cheap precomputed series.

Rule-group semantics follow Prometheus: rules in a group evaluate in
order at the same instant, so later rules can consume earlier rules'
output from the *previous* cycle (same-cycle reads see the freshly written
samples because evaluation time equals write time).  Groups may mix
recording rules with :class:`~repro.pmag.alerting.rules.AlertingRule`
instances — alerting rules evaluate on the same cadence and feed their
state-machine events to the group's ``alert_sink`` (the notification
router).

Incremental materialization
---------------------------
The classic evaluator re-runs every rule's full expression each cycle.
With ``incremental=True`` each rule keeps a *cursor* — the virtual
timestamp of its last evaluation — and evaluates only what is new since.
Two regimes:

* **Cadence mode** (``materialize_lookback_ns`` unset, the deployment
  default): a rule that missed at most one interval evaluates exactly as
  the classic path does (one instant at *now*, so the output stream is
  seed-identical); after a longer outage the missed instants are
  backfilled on the rule's own grid, up to ``max_backfill_steps`` of
  them, and anything older is abandoned (counted in
  ``gap_fallbacks_total``).
* **Materializing mode** (``materialize_lookback_ns`` set): the rule
  maintains a rolling panel of the last ``lookback/interval`` *aligned*
  grid steps.  Each cycle evaluates only the grid steps past the cursor;
  a gap wider than ``max_backfill_steps`` (clamped to the panel size)
  falls back to re-evaluating the whole panel.  Because every write
  lands on the shared grid and duplicate timestamps are first-write-wins,
  the incremental stream is *bit-identical* to re-evaluating the full
  panel every cycle — the property suite proves this for arbitrary
  schedules and gap patterns, and ``bench_rules.py`` gates the speedup.

Cursors are persisted as WAL cursor frames (kind 2) when a WAL is
attached, so a kill/resurrect resumes materialization where it stopped
instead of re-recording the panel — and a lost cursor only costs one
full re-evaluation, never data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import TsdbError
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.query.engine import QueryEngine
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.trace import NOOP_TRACER

DEFAULT_RULE_INTERVAL_NS = 15 * NANOS_PER_SEC

#: Modelled cost of one rule-step evaluation and of each recorded sample
#: (virtual time; must be deterministic because the self-exporter scrapes
#: the resulting ``teemon_rule_eval_seconds`` into the TSDB).
RULE_EVAL_BASE_NS = 100_000
RULE_EVAL_NS_PER_SAMPLE = 1_000

#: Default bound on how many missed grid steps one cycle will backfill.
DEFAULT_MAX_BACKFILL_STEPS = 8


@dataclass(frozen=True)
class RecordingRule:
    """One rule: evaluate ``expr`` and record it as ``record``."""

    record: str
    expr: str
    static_labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.record or ":" not in self.record:
            # Prometheus convention: recorded names carry a level:metric:op
            # shape; require at least one colon to keep them distinguishable
            # from scraped series.
            raise TsdbError(
                f"recording rule name should contain ':': {self.record!r}"
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
        materialize_lookback_ns: Optional[int] = None,
        max_backfill_steps: int = DEFAULT_MAX_BACKFILL_STEPS,
    ) -> None:
        if not name:
            raise TsdbError("rule group needs a name")
        if interval_ns <= 0:
            raise TsdbError("rule interval must be positive")
        if max_backfill_steps < 1:
            raise TsdbError(
                f"max_backfill_steps must be >= 1: {max_backfill_steps}"
            )
        if (materialize_lookback_ns is not None
                and materialize_lookback_ns < interval_ns):
            raise TsdbError(
                "materialize lookback must cover at least one interval"
            )
        seen = set()
        for rule in rules:
            key = _rule_key(rule)
            if key in seen:
                raise TsdbError(f"duplicate rule in group: {key}")
            seen.add(key)
        self.name = name
        self.rules = list(rules)
        self.interval_ns = interval_ns
        self.materialize_lookback_ns = materialize_lookback_ns
        self.max_backfill_steps = max_backfill_steps
        self.evaluations = 0
        self.last_error: Optional[str] = None
        #: Per-rule materialization cursor: virtual ns of the last
        #: evaluated instant (grid-aligned in materializing mode).
        self.cursors: Dict[str, int] = {}
        #: Static-label collisions observed (the rule still overwrites —
        #: pinned behaviour — but the overwrite is now visible).
        self.conflicts_total = 0
        #: Missed grid steps recovered by incremental backfill.
        self.backfilled_steps_total = 0
        #: Gaps too wide to backfill (fell back to full evaluation).
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
    def _plan(self, engine: QueryEngine, key: str, expr: str):
        # The engine's LRU plan cache makes the repeat parse a lookup,
        # and going through it keeps the traced ``query.parse`` span
        # (with its plan_cache_hit attribute) on every rule evaluation.
        return engine.plan(expr)

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
        """The instants one incremental cycle evaluates for a rule."""
        interval = self.interval_ns
        cursor = self.cursors.get(key)
        if self.materialize_lookback_ns is None:
            # Cadence mode: seed-identical when no interval was missed.
            if cursor is None or now_ns <= cursor:
                return [now_ns]
            missed = (now_ns - cursor) // interval
            if missed <= 1:
                return [now_ns]
            panel = min(missed, self.max_backfill_steps)
            if missed > self.max_backfill_steps:
                self.gap_fallbacks_total += 1
            self.backfilled_steps_total += panel - 1
            return [
                now_ns - (panel - 1 - index) * interval
                for index in range(panel)
            ]
        # Materializing mode: everything lands on the aligned grid.
        aligned_now = (now_ns // interval) * interval
        panel_steps = self.materialize_lookback_ns // interval
        effective_max = min(self.max_backfill_steps, panel_steps)
        if cursor is None or (aligned_now - cursor) // interval > effective_max:
            if cursor is not None:
                self.gap_fallbacks_total += 1
            start = aligned_now - (panel_steps - 1) * interval
            return [
                start + index * interval for index in range(panel_steps)
                if start + index * interval >= 0
            ]
        count = (aligned_now - cursor) // interval
        if count > 1:
            self.backfilled_steps_total += count - 1
        return [
            cursor + (index + 1) * interval for index in range(count)
        ]

    def evaluate(
        self,
        engine: QueryEngine,
        tsdb: Tsdb,
        now_ns: int,
        tracer=None,
        incremental: bool = False,
    ) -> int:
        """Evaluate every rule at ``now_ns``; returns samples recorded.

        A failing rule is recorded in :attr:`last_error` and skipped — one
        bad rule must not silence the rest of the group.  With a tracer,
        the group evaluates under a ``rules.group`` span with one
        ``rules.rule`` child per rule (the engine's ``query.*`` spans nest
        inside it, so a rule trace shows its plan-cache outcome).

        With ``incremental=False`` recording rules evaluate exactly as
        the seed path did: one instant at ``now_ns``, no cursors.
        """
        tracer = tracer if tracer is not None else NOOP_TRACER
        recorded = 0
        self.evaluations += 1
        with tracer.span("rules.group", {
            "group": self.name, "rules": len(self.rules),
        }) as group_span:
            for rule in self.rules:
                if isinstance(rule, RecordingRule):
                    recorded += self._evaluate_recording(
                        engine, tsdb, rule, now_ns, tracer, incremental
                    )
                else:
                    self._evaluate_alerting(
                        engine, tsdb, rule, now_ns, tracer
                    )
            group_span.set_attribute("recorded", recorded)
        return recorded

    def _evaluate_recording(
        self, engine, tsdb, rule: RecordingRule, now_ns: int,
        tracer, incremental: bool,
    ) -> int:
        key = rule.record
        with tracer.span("rules.rule", {
            "record": key, "expr": rule.expr,
        }) as rule_span:
            try:
                plan = self._plan(engine, key, rule.expr)
            except Exception as exc:  # noqa: BLE001 - rule-level fault barrier
                self.last_error = f"{key}: {exc}"
                rule_span.set_status("error")
                rule_span.add_event("rules.error", message=str(exc))
                return 0
            if incremental:
                steps = self._recording_steps(key, now_ns)
            else:
                steps = [now_ns]
            written = 0
            for step_ns in steps:
                try:
                    vector = engine.instant_plan(plan, step_ns)
                except Exception as exc:  # noqa: BLE001
                    self.last_error = f"{key}: {exc}"
                    rule_span.set_status("error")
                    rule_span.add_event("rules.error", message=str(exc))
                    break
                count = self._record_vector(rule, vector, tsdb, step_ns)
                written += count
                self.eval_modelled_ns += (
                    RULE_EVAL_BASE_NS + RULE_EVAL_NS_PER_SAMPLE * count
                )
            if incremental and steps:
                cursor = steps[-1]
                self.cursors[key] = cursor
                if self.wal is not None:
                    self.wal.append_cursor(f"{self.name}/{key}", cursor)
            rule_span.set_attribute("recorded", written)
        return written

    def _evaluate_alerting(
        self, engine, tsdb, rule, now_ns: int, tracer
    ) -> None:
        with tracer.span("rules.rule", {
            "alert": rule.name, "expr": rule.expr,
        }) as rule_span:
            try:
                events = rule.evaluate(engine, tsdb, now_ns)
            except Exception as exc:  # noqa: BLE001 - rule-level fault barrier
                self.last_error = f"alert:{rule.name}: {exc}"
                rule_span.set_status("error")
                rule_span.add_event("rules.error", message=str(exc))
                return
            self.eval_modelled_ns += (
                RULE_EVAL_BASE_NS
                + RULE_EVAL_NS_PER_SAMPLE * len(rule.active())
            )
            rule_span.set_attribute("events", len(events))
            if events and self.alert_sink is not None:
                self.alert_sink(events, now_ns)

    def evaluate_full(
        self, engine: QueryEngine, tsdb: Tsdb, now_ns: int
    ) -> int:
        """Reference materialization: re-evaluate the whole panel.

        The equivalence oracle for the property suite and the slow
        baseline for ``bench_rules.py``: every cycle re-evaluates every
        grid step of the rolling panel, relying on duplicate rejection
        to keep already-recorded steps unchanged.  Requires
        ``materialize_lookback_ns``.
        """
        if self.materialize_lookback_ns is None:
            raise TsdbError("evaluate_full needs materialize_lookback_ns")
        interval = self.interval_ns
        aligned_now = (now_ns // interval) * interval
        panel_steps = self.materialize_lookback_ns // interval
        start = aligned_now - (panel_steps - 1) * interval
        recorded = 0
        self.evaluations += 1
        for rule in self.rules:
            if not isinstance(rule, RecordingRule):
                continue
            plan = self._plan(engine, rule.record, rule.expr)
            for index in range(panel_steps):
                step_ns = start + index * interval
                if step_ns < 0:
                    continue
                vector = engine.instant_plan(plan, step_ns)
                count = self._record_vector(rule, vector, tsdb, step_ns)
                recorded += count
                self.eval_modelled_ns += (
                    RULE_EVAL_BASE_NS + RULE_EVAL_NS_PER_SAMPLE * count
                )
        return recorded


class RuleEvaluator:
    """Runs rule groups on the virtual clock."""

    def __init__(
        self,
        clock: VirtualClock,
        engine: QueryEngine,
        tsdb: Tsdb,
        tracer=None,
        incremental: bool = False,
        wal=None,
        alert_sink: Optional[Callable] = None,
        max_backfill_steps: int = DEFAULT_MAX_BACKFILL_STEPS,
    ) -> None:
        self._clock = clock
        self._engine = engine
        self._tsdb = tsdb
        self._tracer = tracer if tracer is not None else NOOP_TRACER
        self._groups: List[RuleGroup] = []
        self._timers = {}
        self._running = False
        self.incremental = incremental
        self.wal = wal
        self.alert_sink = alert_sink
        self.max_backfill_steps = max_backfill_steps
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
        if group.max_backfill_steps == DEFAULT_MAX_BACKFILL_STEPS:
            group.max_backfill_steps = self.max_backfill_steps
        self._groups.append(group)
        if self._running:
            self._schedule(group)

    def groups(self) -> List[RuleGroup]:
        """Registered groups."""
        return list(self._groups)

    def seed_cursors(self, cursors: Dict[str, int]) -> None:
        """Restore materialization cursors recovered from the WAL.

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
            group.evaluate(
                self._engine, self._tsdb, now, tracer=self._tracer,
                incremental=self.incremental,
            )
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
                self._engine, self._tsdb, self._clock.now_ns,
                tracer=self._tracer, incremental=self.incremental,
            )

        self._timers[group.name] = self._clock.call_every(
            group.interval_ns, tick
        )
