"""Anomaly detection over the monitor's own TSDB.

Each run (a fixed virtual-time cadence, scheduled by the deployment) the
detector takes window deltas of three enclave health signals —

* ``sgx_epc_pages_evicted_total``  → EPC thrashing (paging storms),
* ``sgx_aexs_total``               → AEX storms (enclave exit floods),
* ``ebpf_syscall_latency_us_bucket`` → syscall-latency outliers (p95
  estimated from the log2 histogram's window delta),

— compares each against a rolling per-signal baseline (mean of the
previous window deltas) *and* an absolute floor, and on a hit emits:

1. an :class:`AnomalyEvent` appended to a deterministically-ordered
   journal (same seed ⇒ byte-identical text, like the fault and alert
   journals);
2. ``teemon_anomaly_*`` series written straight into the TSDB, so
   dashboards can plot them and alerting rules can page on
   ``teemon_anomaly_active == 1``.  They are detection outputs, not
   counters of the monitor's own work: like a recording rule's output
   they are computed at the detector's tick and read by the
   ``AnomalyDetected`` rule at its own tick, so they are the only
   ``teemon_*`` series the ``teemon_self`` target does not serve.

The floor-and-ratio shape is what makes the detection scenarios strict:
an injected EPC-thrash/AEX-storm/syscall-outlier burst must trip its
rule, while the clean same-seed control run must stay below every floor
(zero false positives, asserted by the scenario suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: ``job`` label of the detector's output series.
DETECTOR_JOB = "teemon_detector"
#: 1 while a kind's latest window is flagged (what an alert pages on).
ANOMALY_ACTIVE = "teemon_anomaly_active"

#: Anomaly kinds (the journal vocabulary).
KIND_EPC_THRASH = "epc-thrash"
KIND_AEX_STORM = "aex-storm"
KIND_SYSCALL_LATENCY = "syscall-latency"


@dataclass(frozen=True)
class AnomalyRule:
    """Threshold shape of one detection rule.

    A window delta flags when it is at least ``min_delta`` *and* at
    least ``ratio`` times the rolling baseline (the baseline guard is
    waived while the baseline is still zero — the floor alone decides).
    """

    kind: str
    metric: str
    min_delta: float
    ratio: float = 4.0


#: Default rule set, floors sized so steady-state simulation noise
#: (background paging, normal syscall traffic) stays well below them.
DEFAULT_RULES: Tuple[AnomalyRule, ...] = (
    AnomalyRule(
        kind=KIND_EPC_THRASH, metric="sgx_epc_pages_evicted_total",
        min_delta=512.0,
    ),
    AnomalyRule(
        kind=KIND_AEX_STORM, metric="sgx_aexs_total",
        min_delta=256.0,
    ),
    AnomalyRule(
        kind=KIND_SYSCALL_LATENCY, metric="ebpf_syscall_latency_us_bucket",
        min_delta=1024.0,  # p95 floor, microseconds
    ),
)


@dataclass(frozen=True)
class AnomalyEvent:
    """One journalled detection."""

    time_ns: int
    kind: str
    metric: str
    value: float
    baseline: float

    def line(self) -> str:
        """Canonical single-line rendering (journal format)."""
        return (
            f"{self.time_ns} anomaly-{self.kind} {self.metric} "
            f"value={self.value:.2f} baseline={self.baseline:.2f}"
        )


def _parse_le(text: str) -> float:
    return math.inf if text == "+Inf" else float(text)


class AnomalyDetector:
    """Rolling-baseline detector over the deployment's TSDB."""

    def __init__(
        self,
        tsdb,
        rules: Tuple[AnomalyRule, ...] = DEFAULT_RULES,
        baseline_windows: int = 6,
        warmup_windows: int = 1,
        instance: Optional[str] = None,
    ) -> None:
        if baseline_windows < 1:
            raise ValueError("baseline_windows must be >= 1")
        if warmup_windows < 0:
            raise ValueError("warmup_windows cannot be negative")
        self._tsdb = tsdb
        self.rules = tuple(rules)
        self.baseline_windows = baseline_windows
        self.warmup_windows = warmup_windows
        self._self_labels = {"job": DETECTOR_JOB}
        if instance is not None:
            self._self_labels["instance"] = instance
        #: Per-kind previous cumulative value (None until first seen).
        self._prev_cum: Dict[str, Optional[float]] = {}
        #: Per-kind previous bucket snapshot (syscall rule only).
        self._prev_buckets: Dict[float, float] = {}
        #: Per-kind rolling window-delta history (baseline input).
        self._history: Dict[str, List[float]] = {}
        self._last_run_ns: Optional[int] = None
        self.journal: List[AnomalyEvent] = []
        self.runs_total = 0
        self.anomalies_total = 0
        self.anomalies_by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Signal extraction
    # ------------------------------------------------------------------
    def _window_series(self, metric: str, start_ns: int, end_ns: int):
        return self._tsdb.select_metric(metric, max(0, start_ns), end_ns)

    def _counter_delta(
        self, rule: AnomalyRule, start_ns: int, end_ns: int
    ) -> Optional[float]:
        """Window delta of a cumulative counter (None = no data yet)."""
        series = self._window_series(rule.metric, start_ns, end_ns)
        if not series:
            return None
        current = sum(s.samples[-1].value for s in series if s.samples)
        previous = self._prev_cum.get(rule.kind)
        self._prev_cum[rule.kind] = current
        if previous is None:
            return None
        return max(0.0, current - previous)

    def _syscall_p95(
        self, rule: AnomalyRule, start_ns: int, end_ns: int
    ) -> Optional[float]:
        """p95 latency (us) estimated from the window's bucket deltas."""
        series = self._window_series(rule.metric, start_ns, end_ns)
        if not series:
            return None
        buckets: Dict[float, float] = {}
        for s in series:
            if not s.samples:
                continue
            le = _parse_le(s.labels.get("le", "+Inf"))
            buckets[le] = buckets.get(le, 0.0) + s.samples[-1].value
        previous = self._prev_buckets
        self._prev_buckets = buckets
        if not previous:
            return None
        deltas = {
            le: max(0.0, count - previous.get(le, 0.0))
            for le, count in buckets.items()
        }
        total = deltas.get(math.inf, 0.0)
        if total <= 0.0:
            return 0.0
        target = 0.95 * total
        for le in sorted(deltas):
            if deltas[le] >= target:
                # +Inf resolves to the largest finite bound doubled — an
                # estimate is enough for an outlier threshold.
                if math.isinf(le):
                    finite = [b for b in deltas if not math.isinf(b)]
                    return max(finite) * 2.0 if finite else 0.0
                return le
        return 0.0

    # ------------------------------------------------------------------
    # The detection cycle
    # ------------------------------------------------------------------
    def run(self, now_ns: int) -> List[AnomalyEvent]:
        """Evaluate every rule over the window since the previous run;
        a run at or before that run's instant has none and does nothing."""
        # Here, not at module level: importing repro.pmag imports this.
        from repro.pmag.model import Labels

        if self._last_run_ns is not None and now_ns <= self._last_run_ns:
            return []
        self.runs_total += 1
        start_ns = self._last_run_ns if self._last_run_ns is not None else 0
        self._last_run_ns = now_ns
        fired: List[AnomalyEvent] = []
        writes: List[tuple] = []
        for rule in self.rules:
            if rule.kind == KIND_SYSCALL_LATENCY:
                value = self._syscall_p95(rule, start_ns, now_ns)
            else:
                value = self._counter_delta(rule, start_ns, now_ns)
            if value is None:
                continue
            history = self._history.setdefault(rule.kind, [])
            baseline = (
                sum(history) / len(history) if history else 0.0
            )
            warmed = len(history) >= self.warmup_windows
            flagged = (
                warmed
                and value >= rule.min_delta
                and (baseline <= 0.0 or value >= rule.ratio * baseline)
            )
            if flagged:
                event = AnomalyEvent(
                    time_ns=now_ns, kind=rule.kind, metric=rule.metric,
                    value=value, baseline=baseline,
                )
                self.journal.append(event)
                fired.append(event)
                self.anomalies_total += 1
                self.anomalies_by_kind[rule.kind] = (
                    self.anomalies_by_kind.get(rule.kind, 0) + 1
                )
            else:
                # Anomalous windows stay out of the baseline, so a
                # sustained storm keeps flagging instead of teaching
                # the baseline that storms are normal.
                history.append(value)
                if len(history) > self.baseline_windows:
                    history.pop(0)
            for metric, sample in (
                (ANOMALY_ACTIVE, 1.0 if flagged else 0.0),
                ("teemon_anomaly_score", value),
                ("teemon_anomalies_total",
                 float(self.anomalies_by_kind.get(rule.kind, 0))),
            ):
                writes.append((
                    Labels.of(metric, kind=rule.kind, **self._self_labels),
                    now_ns, sample))
        if writes:
            self._tsdb.append_batch(writes)
        return fired

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Detector counters for the session API / self-telemetry."""
        return {
            "runs_total": self.runs_total,
            "anomalies_total": self.anomalies_total,
            "anomalies_by_kind": dict(self.anomalies_by_kind),
        }


__all__ = [
    "ANOMALY_ACTIVE",
    "AnomalyDetector",
    "AnomalyEvent",
    "AnomalyRule",
    "DEFAULT_RULES",
    "KIND_AEX_STORM",
    "KIND_EPC_THRASH",
    "KIND_SYSCALL_LATENCY",
]
