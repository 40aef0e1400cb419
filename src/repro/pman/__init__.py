"""Performance Metrics Analysis (the paper's PMAN component).

"PMAN analyzes the time-series monitoring data using slide window
computations, e.g., it processes every minute for the last five minutes of
the monitoring data.  In each time window, PMAN not only compares the
monitoring data with user-defined thresholds to detect anomalies but also
provides a box plot for SGX metrics.  PMAN supports handling anomalies in
several ways including alerting, dashboard updating, and logging." (§4)

Modules:

* :mod:`repro.pman.boxplot` — five-number summaries with outliers;
* :mod:`repro.pman.analyzer` — the periodic analysis loop.  Its threshold
  rules are alerting rules (:class:`~repro.pmag.alerting.AlertingRule`)
  evaluated as one rule group, so lifecycle, dedup and journal lines are
  the alerting engine's; the default SGX bottleneck rules derive from the
  paper's findings (syscall-dominance, EPC pressure, context-switch
  storms).
"""

from repro.pman.analyzer import PmanAnalyzer, default_sgx_rules
from repro.pman.boxplot import BoxPlot

__all__ = [
    "BoxPlot",
    "PmanAnalyzer",
    "default_sgx_rules",
]
