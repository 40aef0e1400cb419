"""The periodic PMAN analysis loop.

Every minute (configurable), the analyzer evaluates its rule group and
refreshes box-plot summaries of the configured SGX metrics over the
trailing five-minute window — exactly the behaviour §4 describes.  A rule
compares a query with a user-defined threshold; it is an ordinary
:class:`~repro.pmag.alerting.AlertingRule` (``for_s=0``), so PMAN shares
the alerting engine's pending -> firing -> resolved machine and dedup.
Each rule event becomes one line of the analyzer's journal ("logging")
and goes to the registered sinks ("dashboard updating").

:func:`default_sgx_rules` encodes the bottleneck signatures the paper's
evaluation surfaces:

* **syscall dominance** — ``clock_gettime``/``futex`` rates dwarfing
  ``read``/``write`` indicate an enclave-exit bottleneck (§6.4 found
  clock_gettime peaking at 370 k/s, 10× the I/O syscalls);
* **EPC pressure** — sustained eviction rates mean the working set has
  outgrown the ~94 MB EPC (§6.5, Figure 11(d));
* **context-switch storms** — host-wide switch rates far above the
  process's own indicate framework-induced churn (Graphene in Fig. 11(f));
* **scrape health** — any ``up == 0`` target.  It is called
  ``TargetUnreachable``: the alerting engine's own ``TargetDown`` writes
  ``ALERTS`` series in the same deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import AnalysisError
from repro.pmag.alerting import AlertingRule, AlertInstance, AlertJournal
from repro.pmag.query.engine import QueryEngine
from repro.pmag.rules import RuleGroup
from repro.pman.boxplot import BoxPlot
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock

DEFAULT_WINDOW_NS = 5 * 60 * NANOS_PER_SEC   # "the last five minutes"
DEFAULT_EVERY_NS = 60 * NANOS_PER_SEC        # "every minute"
#: Resolution of the box-plot windows.
BOXPLOT_STEP_NS = 15 * NANOS_PER_SEC


def _rule(name: str, expr: str, severity: str,
          description: str) -> AlertingRule:
    return AlertingRule(name, expr, labels={"severity": severity},
                        annotations={"description": description})


def default_sgx_rules() -> List[AlertingRule]:
    """The built-in bottleneck rules derived from the paper's findings."""
    return [
        _rule("ClockGettimeDominance",
              'rate(ebpf_syscalls_total{name="clock_gettime"}[5m]) > 50000',
              "warning", "clock_gettime storm: every call exits the enclave"),
        _rule("FutexDominance",
              'rate(ebpf_syscalls_total{name="futex"}[5m]) > 50000',
              "warning", "futex storm: thread synchronisation crosses the "
              "enclave boundary"),
        _rule("EpcEvictionPressure",
              "rate(sgx_epc_pages_evicted_total[5m]) > 1000",
              "critical", "working set exceeds the usable EPC (~94 MB); "
              "paging is expensive"),
        _rule("EpcNearlyFull", "sgx_epc_free_pages < 512",
              "warning", "free EPC pages below 2 MB"),
        _rule("ContextSwitchStorm",
              "rate(ebpf_context_switches_total[5m]) > 100000",
              "warning", "host-wide context-switch storm (check ksgxswapd "
              "and enclave exits)"),
        _rule("TargetUnreachable", "1 - up > 0.5",
              "critical", "scrape target unreachable"),
    ]


#: SGX metrics summarised as box plots each window (§4).
DEFAULT_BOXPLOT_METRICS = (
    "sgx_epc_free_pages",
    "rate(sgx_epc_pages_evicted_total[5m])",
    "rate(ebpf_page_faults_total[5m])",
)


@dataclass
class AnalysisReport:
    """Output of one analysis cycle."""

    time_ns: int
    firing: List[AlertInstance]
    boxplots: Dict[str, BoxPlot]


class PmanAnalyzer:
    """Periodic rule evaluation + box-plot refresh."""

    def __init__(
        self,
        clock: VirtualClock,
        engine: QueryEngine,
        tsdb,
        rules: Optional[Sequence[AlertingRule]] = None,
        boxplot_queries: Sequence[str] = DEFAULT_BOXPLOT_METRICS,
        window_ns: int = DEFAULT_WINDOW_NS,
        every_ns: int = DEFAULT_EVERY_NS,
    ) -> None:
        if every_ns <= 0:
            raise AnalysisError("analysis cadence must be positive")
        self._clock = clock
        self._engine = engine
        self._tsdb = tsdb
        if rules is None:
            rules = default_sgx_rules()
        # Cloned: evaluation state lives on the rule, and every analyzer
        # starts fresh.
        self.group = RuleGroup(
            "pman", [rule.clone() for rule in rules], interval_ns=every_ns
        )
        self.journal = journal = AlertJournal()
        sinks: List[Callable] = []
        self._sinks = sinks

        def on_events(events, now_ns: int) -> None:
            for kind, instance in events:
                journal.record_event(now_ns, kind, instance)
            for sink in sinks:
                sink(events, now_ns)

        # A closure, not a bound method: a group -> analyzer cycle would
        # keep a stopped analyzer, and the TSDB its engine reads, alive
        # until the cyclic collector next runs.
        self.group.alert_sink = on_events
        self.boxplot_queries = list(boxplot_queries)
        self.window_ns = window_ns
        self.every_ns = every_ns
        #: The newest cycle's report, and how many cycles have run: a
        #: monitor analyses every minute for as long as it lives, so
        #: older reports are not kept.
        self.latest_report: Optional[AnalysisReport] = None
        self.analyses_total = 0
        self._timer = None

    def add_sink(self, sink: Callable) -> None:
        """Register a sink called with each cycle's ``(events, now_ns)``."""
        self._sinks.append(sink)

    def firing(self) -> List[AlertInstance]:
        """Firing instances, in rule order."""
        return [inst for rule in self.group.rules for inst in rule.firing()]

    # ------------------------------------------------------------------
    def analyze_once(self) -> AnalysisReport:
        """Run one analysis cycle now."""
        now = self._clock.now_ns
        self.group.evaluate(self._engine, self._tsdb, now)
        start = max(0, now - self.window_ns)
        boxplots: Dict[str, BoxPlot] = {}
        for query in self.boxplot_queries:
            values = [
                point.value
                for series in self._engine.range_query(
                    query, start, now, BOXPLOT_STEP_NS)
                for point in series.samples
            ]
            if any(map(math.isfinite, values)):
                boxplots[query] = BoxPlot.from_values(values)
        report = AnalysisReport(
            time_ns=now, firing=self.firing(), boxplots=boxplots
        )
        self.latest_report = report
        self.analyses_total += 1
        return report

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic analysis on the virtual clock."""
        if self._timer is not None:
            raise AnalysisError("analyzer already running")
        self._timer = self._clock.call_every(self.every_ns, self.analyze_once)

    def stop(self) -> None:
        """Stop periodic analysis."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
