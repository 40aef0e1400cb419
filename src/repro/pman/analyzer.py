"""The periodic PMAN analysis loop.

Every minute (configurable), the analyzer evaluates each rule's query over
the trailing five-minute window, fires/resolves alerts through the
:class:`~repro.pman.alerts.AlertManager`, and refreshes box-plot summaries
for the configured SGX metrics — exactly the behaviour §4 describes.

:func:`default_sgx_rules` encodes the bottleneck signatures the paper's
evaluation surfaces:

* **syscall dominance** — ``clock_gettime``/``futex`` rates dwarfing
  ``read``/``write`` indicate an enclave-exit bottleneck (§6.4 found
  clock_gettime peaking at 370 k/s, 10× the I/O syscalls);
* **EPC pressure** — sustained eviction rates mean the working set has
  outgrown the ~94 MB EPC (§6.5, Figure 11(d));
* **context-switch storms** — host-wide switch rates far above the
  process's own indicate framework-induced churn (Graphene in Fig. 11(f));
* **scrape health** — any ``up == 0`` target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import AnalysisError
from repro.pmag.query.engine import QueryEngine
from repro.pman.alerts import AlertManager, AlertSeverity
from repro.pman.boxplot import BoxPlot
from repro.pman.thresholds import ThresholdRule, Violation
from repro.pman.window import DEFAULT_EVERY_NS, DEFAULT_WINDOW_NS, SlidingWindow
from repro.simkernel.clock import VirtualClock


def default_sgx_rules() -> List[ThresholdRule]:
    """The built-in bottleneck rules derived from the paper's findings."""
    return [
        ThresholdRule(
            name="ClockGettimeDominance",
            query='rate(ebpf_syscalls_total{name="clock_gettime"}[5m])',
            op=">",
            threshold=50_000.0,
            severity="warning",
            description="clock_gettime storm: every call exits the enclave",
        ),
        ThresholdRule(
            name="FutexDominance",
            query='rate(ebpf_syscalls_total{name="futex"}[5m])',
            op=">",
            threshold=50_000.0,
            severity="warning",
            description="futex storm: thread synchronisation crosses the enclave boundary",
        ),
        ThresholdRule(
            name="EpcEvictionPressure",
            query="rate(sgx_epc_pages_evicted_total[5m])",
            op=">",
            threshold=1_000.0,
            severity="critical",
            description="working set exceeds the usable EPC (~94 MB); paging is expensive",
        ),
        ThresholdRule(
            name="EpcNearlyFull",
            query="sgx_epc_free_pages",
            op="<",
            threshold=512.0,
            severity="warning",
            description="free EPC pages below 2 MB",
        ),
        ThresholdRule(
            name="ContextSwitchStorm",
            query="rate(ebpf_context_switches_total[5m])",
            op=">",
            threshold=100_000.0,
            severity="warning",
            description="host-wide context-switch storm (check ksgxswapd and enclave exits)",
        ),
        ThresholdRule(
            name="TargetDown",
            query="1 - up",
            op=">",
            threshold=0.5,
            severity="critical",
            description="scrape target unreachable",
            sustained_fraction=0.0,
        ),
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
    violations: List[Violation]
    boxplots: Dict[str, BoxPlot]

    def render(self, width: int = 60) -> str:
        """Human-readable report: violations first, then the box plots."""
        lines = [f"── PMAN analysis @ {self.time_ns / 1e9:.0f}s ──"]
        if self.violations:
            lines.append(f"violations ({len(self.violations)}):")
            for violation in self.violations:
                lines.append(f"  ! {violation.message}")
        else:
            lines.append("violations: none")
        for query, box in self.boxplots.items():
            lines.append(f"boxplot {query}:")
            lines.append("  " + box.render(width))
        return "\n".join(lines)


class PmanAnalyzer:
    """Periodic rule evaluation + box-plot refresh."""

    def __init__(
        self,
        clock: VirtualClock,
        engine: QueryEngine,
        rules: Optional[Sequence[ThresholdRule]] = None,
        boxplot_queries: Sequence[str] = DEFAULT_BOXPLOT_METRICS,
        window_ns: int = DEFAULT_WINDOW_NS,
        every_ns: int = DEFAULT_EVERY_NS,
    ) -> None:
        if every_ns <= 0:
            raise AnalysisError("analysis cadence must be positive")
        self._clock = clock
        self._engine = engine
        self.rules = list(rules) if rules is not None else default_sgx_rules()
        self.boxplot_queries = list(boxplot_queries)
        self.window_ns = window_ns
        self.every_ns = every_ns
        self.alerts = AlertManager()
        self.reports: List[AnalysisReport] = []
        self._timer = None

    # ------------------------------------------------------------------
    def analyze_once(self) -> AnalysisReport:
        """Run one analysis cycle now."""
        now = self._clock.now_ns
        violations: List[Violation] = []
        for rule in self.rules:
            window = SlidingWindow(
                self._engine, rule.query, window_ns=self.window_ns
            ).evaluate(now)
            rule_violations = rule.check(window)
            violations.extend(rule_violations)
            firing_labels = [v.labels for v in rule_violations]
            for violation in rule_violations:
                self.alerts.fire(
                    name=rule.name,
                    labels=violation.labels,
                    severity=AlertSeverity.parse(rule.severity),
                    message=violation.message,
                    now_ns=now,
                    value=violation.value,
                )
            self.alerts.resolve_absent(rule.name, firing_labels, now)

        boxplots: Dict[str, BoxPlot] = {}
        for query in self.boxplot_queries:
            window = SlidingWindow(
                self._engine, query, window_ns=self.window_ns
            ).evaluate(now)
            values = window.all_values()
            if values:
                boxplots[query] = BoxPlot.from_values(values)

        report = AnalysisReport(time_ns=now, violations=violations, boxplots=boxplots)
        self.reports.append(report)
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
