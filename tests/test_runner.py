"""Experiment runner and result-rendering tests."""

from repro.experiments.common import ExperimentResult
from repro.experiments.runner import ALL_EXPERIMENTS


def test_all_experiments_registered_in_order():
    ids = [experiment_id for experiment_id, _ in ALL_EXPERIMENTS]
    assert ids == ["table1", "table2", "fig3", "fig4", "fig5", "fig6",
                   "fig7", "fig8", "fig9", "fig10", "fig11"]


def test_experiment_result_helpers():
    result = ExperimentResult("id", "title")
    result.add(a=1, b="x")
    result.add(a=2, b="y")
    assert result.column("a") == [1, 2]
    assert result.rows_where(b="y") == [{"a": 2, "b": "y"}]
    rendered = result.render()
    assert "id: title" in rendered and "x" in rendered


def test_empty_result_renders_gracefully():
    assert "(no rows)" in ExperimentResult("e", "t").render()
