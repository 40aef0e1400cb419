"""Box-plot summaries.

PMAN "provides a box plot for SGX metrics" in each analysis window (§4).
A :class:`BoxPlot` is the standard five-number summary with 1.5×IQR
whiskers and explicit outliers, kept on each
:class:`~repro.pman.analyzer.AnalysisReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import AnalysisError
from repro.pmag.query.functions import quantile_of


@dataclass(frozen=True)
class BoxPlot:
    """Five-number summary with outliers."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple
    count: int

    @staticmethod
    def from_values(values: Sequence[float]) -> "BoxPlot":
        """Summarise the finite values of a list (NaN and ±Inf, e.g. from
        a scraped counter, have no place on the axis)."""
        data = sorted(v for v in values if math.isfinite(v))
        if not data:
            raise AnalysisError("box plot of no finite values")
        q1 = quantile_of(list(data), 0.25)
        median = quantile_of(list(data), 0.5)
        q3 = quantile_of(list(data), 0.75)
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inliers = [v for v in data if low_fence <= v <= high_fence]
        outliers = tuple(v for v in data if v < low_fence or v > high_fence)
        whisker_low = min(inliers) if inliers else data[0]
        whisker_high = max(inliers) if inliers else data[-1]
        return BoxPlot(
            minimum=data[0],
            q1=q1,
            median=median,
            q3=q3,
            maximum=data[-1],
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            outliers=outliers,
            count=len(data),
        )
