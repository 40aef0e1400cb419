"""``benchmarks/ab.py``: pairing and summary arithmetic on canned records."""

from pathlib import Path

import pytest

from benchmarks import ab


def _record(work, rss, attempted, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"work_per_s": {"value": work, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


BETTER = {"work_per_s": "higher", "peak_rss_mb": "lower"}


def test_pairs_alternate_the_first_mover():
    assert ab.pair_order(4) == [("base", "head"), ("head", "base"),
                                ("base", "head"), ("head", "base")]


def test_summary_takes_median_ratio_wins_and_base_iqr():
    pairs = [
        (_record(100.0, 50.0, 10), _record(120.0, 50.0, 12)),
        (_record(200.0, 52.0, 20), _record(180.0, 51.0, 18)),
        (_record(100.0, 54.0, 10), _record(150.0, 56.0, 15)),
        (_record(150.0, 56.0, 15), _record(150.0, 55.0, 15, failed=1)),
    ]
    summary = ab.summarize(pairs, BETTER)
    work, rss = summary["metrics"]["work_per_s"], summary["metrics"][
        "peak_rss_mb"]
    # Ratios 1.2, 0.9, 1.5, 1.0: the median is 1.1.
    assert work["median_ratio"] == pytest.approx(1.1)
    assert work["wins"] == 2  # a tie is not a win
    assert (work["base_median"], work["head_median"]) == (125.0, 150.0)
    # statistics.quantiles (exclusive) of 100, 100, 150, 200: 100, 187.5.
    assert work["base_iqr_share"] == pytest.approx(87.5 / 125.0)
    # Lower is better for memory: 51 < 52 and 55 < 56 win.
    assert rss["wins"] == 2
    # Ratios 1.0, 51/52, 56/54, 55/56: the mean of the middle two.
    assert rss["median_ratio"] == pytest.approx((1.0 + 55 / 56) / 2)
    assert summary["attempted"] == {"base": [10, 20, 10, 15],
                                    "head": [12, 18, 15, 15]}
    assert summary["failed"] == {"base": [0, 0, 0, 0], "head": [0, 0, 0, 1]}
    assert summary["pairs"] == 4 and summary["correct"]


def test_pairs_run_in_the_alternated_order():
    calls = []

    def runner(tree, workload, seed):
        calls.append(tree.name)
        return _record(2.0 if tree.name == "head" else 1.0, 1.0, 3)

    trees = {"base": Path("base"), "head": Path("head")}
    result = ab.ab_workload(trees, "fleet_federated", 7, 3, False,
                            Path("."), BETTER, runner=runner)
    assert calls == ["base", "head", "head", "base", "base", "head"]
    assert result["driver"]["metrics"]["work_per_s"]["median_ratio"] == 2.0
    assert result["driver"]["metrics"]["work_per_s"]["wins"] == 3
    assert "fixed" not in result


def test_exact_differences_name_only_exact_metrics_that_moved():
    def entry(**values):
        cells = {"a.calls": True, "a.self_s": False, "bytes": True}
        return {"per_layer": {name: {"exact": exact,
                                     "value": values.get(name, 1)}
                              for name, exact in cells.items()}}

    assert ab.exact_differences(entry(), entry()) == {}
    assert ab.exact_differences(
        entry(), entry(**{"a.self_s": 2, "bytes": 3})) == {"bytes": [1, 3]}
