"""Run every experiment and render the paper-vs-measured report.

``python -m repro.experiments.runner`` executes all eleven experiments
(with reduced durations by default so the full suite finishes in minutes)
and prints each table; ``python -m repro experiments [ids...]`` runs the
same loop, :func:`run_all`, over all of them or a subset.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.fig3_dashboard import run_fig3
from repro.experiments.fig4_footprint import run_fig4
from repro.experiments.fig5_overhead import run_fig5
from repro.experiments.fig6_syscalls import run_fig6
from repro.experiments.fig7_evolution import run_fig7
from repro.experiments.fig8_throughput import run_fig8
from repro.experiments.fig9_latency import run_fig9
from repro.experiments.fig10_combined import run_fig10
from repro.experiments.fig11_metrics import run_fig11
from repro.experiments.table1_tools import run_table1
from repro.experiments.table2_metrics import run_table2

ALL_EXPERIMENTS: Tuple[Tuple[str, Callable[[], ExperimentResult]], ...] = (
    ("table1", run_table1),
    ("table2", run_table2),
    ("fig3", lambda: run_fig3()[0]),
    ("fig4", lambda: run_fig4(hours=2.0)),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("fig8", lambda: run_fig8(duration_s=3.0)),
    ("fig9", lambda: run_fig9(duration_s=3.0)),
    ("fig10", lambda: run_fig10(duration_s=3.0)),
    ("fig11", lambda: run_fig11(duration_s=10.0)),
)


def run_all(ids: Sequence[str] = ()) -> None:
    """Run the experiments named in ``ids`` (all of them when empty), in
    order, printing each table.

    Raises :class:`ValueError` on an unknown id, before running any.
    """
    known = dict(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise ValueError(
            f"unknown experiment ids: {unknown}; known: {sorted(known)}"
        )
    for experiment_id in ids or known:
        print(known[experiment_id]().render())
        print()


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    run_all()
