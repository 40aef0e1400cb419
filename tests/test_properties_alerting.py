"""Property proofs for recording-rule backfill and the alerting engine.

Two families:

* **Cadence backfill**: for arbitrary rule expressions, evaluation
  intervals, phases and gaps (including gaps wider than
  ``MAX_BACKFILL_STEPS``), a recording group's stored output after every
  evaluation equals a reference built from ``engine.instant_plan`` at the
  instants the rule spec names — *now* alone after a gap of at most one
  interval, otherwise the last ``min(gap, MAX_BACKFILL_STEPS)`` grid
  steps ending at *now*.  The backfill and gap counters match the
  reference's, and re-evaluating at the same instant changes nothing.

* **For-duration state machine**: for arbitrary 0/1 signal schedules
  and ``for_`` durations, every firing is preceded by a pending in the
  same episode (never skipped, even with ``for_=0``), firing happens no
  earlier than ``for_`` after activation, and departures empty the
  active set.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmag.alerting import AlertingRule
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.query.engine import QueryEngine
from repro.pmag.rules import MAX_BACKFILL_STEPS, RecordingRule, RuleGroup
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import seconds


# ---------------------------------------------------------------------------
# Cadence backfill == instant evaluation at the spec's instants
# ---------------------------------------------------------------------------
_EXPRESSIONS = (
    "sig",
    "sum(sig)",
    "sum by (idx) (sig)",
    "max(sig)",
    "rate(sig[1m])",
    "sum(rate(sig[1m]))",
    "avg_over_time(sig[2m])",
    "sig > 100",
)

_backfill_strategy = st.fixed_dictionaries({
    "expr": st.sampled_from(_EXPRESSIONS),
    "interval_s": st.sampled_from((5, 15, 30)),
    # Gaps between evaluations, in eval-interval units: 1 is the happy
    # path, larger values force backfill and (past MAX_BACKFILL_STEPS)
    # abandon the oldest missed steps.
    "gaps": st.lists(st.integers(1, 20), min_size=1, max_size=12),
    "series": st.dictionaries(
        st.integers(0, 2),
        st.lists(st.integers(0, 500).map(float), min_size=3, max_size=40),
        min_size=1, max_size=3,
    ),
    "phase_s": st.integers(0, 29),
})


def _sample_set(tsdb, metric):
    out = set()
    for series in tsdb.select_metric(metric, 0, 2 ** 62):
        for sample in series.samples:
            out.add((series.labels.items(), sample.time_ns, sample.value))
    return out


def _ingest(tsdb, series):
    for idx, values in series.items():
        for step, value in enumerate(values):
            tsdb.append(
                Labels.of("sig", idx=str(idx)),
                (step + 1) * seconds(10), value,
            )


@given(_backfill_strategy)
@settings(max_examples=60, deadline=None)
def test_cadence_backfill_records_exactly_the_spec_instants(case):
    interval_ns = seconds(case["interval_s"])
    tsdb, raw = Tsdb(), Tsdb()
    _ingest(tsdb, case["series"])
    _ingest(raw, case["series"])  # the reference reads raw data only
    engine, raw_engine = QueryEngine(tsdb), QueryEngine(raw)
    group = RuleGroup(
        "m", [RecordingRule(record="job:sig:m", expr=case["expr"])],
        interval_ns=interval_ns,
    )
    plan = raw_engine.plan(case["expr"])
    expected = {}           # (labels, t) -> value, first write wins
    backfilled = fallbacks = 0

    now_ns = seconds(60 + case["phase_s"])
    for index, gap in enumerate(case["gaps"]):
        now_ns += gap * interval_ns
        # The first evaluation has no cursor: *now* alone.
        steps = 1 if index == 0 else min(gap, MAX_BACKFILL_STEPS)
        backfilled += steps - 1
        if index and gap > MAX_BACKFILL_STEPS:
            fallbacks += 1
        for back in range(steps - 1, -1, -1):
            time_ns = now_ns - back * interval_ns
            for labels, value in raw_engine.instant_plan(plan, time_ns):
                out = dict(labels.items())
                out[METRIC_NAME_LABEL] = "job:sig:m"
                expected.setdefault((Labels(out).items(), time_ns), value)
        reference = {(items, t, v) for (items, t), v in expected.items()}

        group.evaluate(engine, tsdb, now_ns)
        # Equal after *every* evaluation, not just at the end — a
        # divergence may not be allowed to self-heal.
        assert _sample_set(tsdb, "job:sig:m") == reference
        assert group.backfilled_steps_total == backfilled
        assert group.gap_fallbacks_total == fallbacks
        # Re-evaluating without time passing changes nothing.
        group.evaluate(engine, tsdb, now_ns)
        assert _sample_set(tsdb, "job:sig:m") == reference
        assert group.backfilled_steps_total == backfilled
        assert group.gap_fallbacks_total == fallbacks


# ---------------------------------------------------------------------------
# For-duration state machine ordering
# ---------------------------------------------------------------------------
_state_machine_strategy = st.fixed_dictionaries({
    "signal": st.lists(st.booleans(), min_size=1, max_size=40),
    "for_intervals": st.integers(0, 6),
    "interval_s": st.sampled_from((5, 15)),
})


@given(_state_machine_strategy)
@settings(max_examples=100, deadline=None)
def test_state_machine_never_skips_pending_before_firing(case):
    interval_ns = seconds(case["interval_s"])
    for_ns = case["for_intervals"] * interval_ns
    tsdb = Tsdb()
    engine = QueryEngine(tsdb)
    rule = AlertingRule(
        name="Sig", expr="sig == 1",
        for_s=for_ns / 1e9,
    )
    labels = Labels.of("sig", instance="a")
    events = []
    now_ns = 0
    for step, up in enumerate(case["signal"]):
        now_ns = (step + 1) * interval_ns
        tsdb.append(labels, now_ns, 1.0 if up else 0.0)
        for kind, instance in rule.evaluate(engine, tsdb, now_ns):
            events.append((now_ns, kind, instance.active_since_ns))

    armed = False   # pending emitted, not yet fired
    firing = False
    for time_ns, kind, active_since_ns in events:
        if kind == "pending":
            assert not armed and not firing  # episodes never overlap
            armed = True
        elif kind == "firing":
            # The ordering invariant: a firing is always preceded by the
            # episode's pending — even when for_=0 fires the same cycle.
            assert armed and not firing
            assert time_ns - active_since_ns >= for_ns
            armed, firing = False, True
        elif kind == "resolved":
            assert firing and not armed
            firing = False
        elif kind == "expired":
            assert armed and not firing
            armed = False

    # The final journal state agrees with the live instance set.
    if firing:
        assert [i.state for i in rule.active()] == ["firing"]
    elif armed:
        assert [i.state for i in rule.active()] == ["pending"]
    else:
        assert rule.active() == []


@given(_state_machine_strategy)
@settings(max_examples=60, deadline=None)
def test_firing_requires_continuous_presence_for_at_least_for_duration(case):
    interval_ns = seconds(case["interval_s"])
    for_ns = case["for_intervals"] * interval_ns
    tsdb = Tsdb()
    engine = QueryEngine(tsdb)
    rule = AlertingRule(name="Sig", expr="sig == 1", for_s=for_ns / 1e9)
    labels = Labels.of("sig", instance="a")
    episode_start = None
    for step, up in enumerate(case["signal"]):
        now_ns = (step + 1) * interval_ns
        tsdb.append(labels, now_ns, 1.0 if up else 0.0)
        events = rule.evaluate(engine, tsdb, now_ns)
        kinds = [k for k, _ in events]
        if "pending" in kinds:
            episode_start = now_ns
        if "firing" in kinds:
            # Continuous presence since this episode's activation: the
            # signal was up at every evaluation in between.
            assert episode_start is not None
            assert now_ns - episode_start >= for_ns
        if "resolved" in kinds or "expired" in kinds:
            episode_start = None
