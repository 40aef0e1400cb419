"""Calibration: framework cost profiles and the paper's reported numbers.

The simulated substrate reproduces *mechanisms* (async syscall queues,
OCALL exits, EPC paging); this package holds the *numbers* that anchor
those mechanisms to the paper's measurements — per-framework request
costs, concurrency responses, and the Figure-11 event-rate tables — plus
:mod:`repro.calibration.paper`, the paper's own reported values used by
EXPERIMENTS.md and the shape-checking tests.
"""

from repro.calibration.profiles import (
    FrameworkCalibration,
    GRAPHENE_CALIBRATION,
    NATIVE_CALIBRATION,
    SCONE_CALIBRATION,
    SGXLKL_CALIBRATION,
)

__all__ = [
    "FrameworkCalibration",
    "NATIVE_CALIBRATION",
    "SCONE_CALIBRATION",
    "SGXLKL_CALIBRATION",
    "GRAPHENE_CALIBRATION",
]
