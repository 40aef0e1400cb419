"""The anomaly detector over the monitor's own TSDB.

:class:`~repro.trace.detect.AnomalyDetector` takes window deltas of
enclave health series (AEX counters, EPC evictions, syscall latency),
compares them against rolling baselines and journals
``teemon_anomaly_*`` detections.
"""

from repro.trace.detect import (
    AnomalyDetector,
    AnomalyEvent,
    AnomalyRule,
)

__all__ = [
    "AnomalyDetector",
    "AnomalyEvent",
    "AnomalyRule",
]
