"""Performance Metrics Analysis (the paper's PMAN component).

"PMAN analyzes the time-series monitoring data using slide window
computations, e.g., it processes every minute for the last five minutes of
the monitoring data.  In each time window, PMAN not only compares the
monitoring data with user-defined thresholds to detect anomalies but also
provides a box plot for SGX metrics.  PMAN supports handling anomalies in
several ways including alerting, dashboard updating, and logging." (§4)

Modules:

* :mod:`repro.pman.window` — sliding-window evaluation over the query engine;
* :mod:`repro.pman.thresholds` — user-defined threshold rules;
* :mod:`repro.pman.boxplot` — five-number summaries with outliers;
* :mod:`repro.pman.alerts` — the analyzer's alert lifecycle (fire, dedup,
  resolve) and sinks; routing, silences, inhibition and webhook receivers
  are :mod:`repro.pmag.alerting`;
* :mod:`repro.pman.analyzer` — the periodic analysis loop tying it together,
  including the default SGX bottleneck rules derived from the paper's
  findings (syscall-dominance, EPC pressure, context-switch storms).
"""

from repro.pman.alerts import Alert, AlertManager, AlertSeverity
from repro.pman.analyzer import PmanAnalyzer, default_sgx_rules
from repro.pman.boxplot import BoxPlot
from repro.pman.thresholds import ThresholdRule
from repro.pman.window import SlidingWindow

__all__ = [
    "SlidingWindow",
    "ThresholdRule",
    "BoxPlot",
    "Alert",
    "AlertSeverity",
    "AlertManager",
    "PmanAnalyzer",
    "default_sgx_rules",
]
