"""MEE model tests."""

import pytest

from repro.sgx.mee import MeeModel


def test_mee_miss_cost_exceeds_dram():
    mee = MeeModel()
    assert mee.miss_cost_ns(base_dram_ns=90.0) > 90.0


def test_mee_bandwidth_penalty():
    mee = MeeModel(bandwidth_penalty=0.35)
    assert mee.effective_bandwidth(100.0) == pytest.approx(65.0)
