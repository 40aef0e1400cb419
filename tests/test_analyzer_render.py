"""AnalysisReport rendering tests."""

from repro.pmag.alerting import STATE_FIRING, AlertInstance
from repro.pmag.model import Labels
from repro.pman.analyzer import AnalysisReport
from repro.pman.boxplot import BoxPlot


def _firing():
    return AlertInstance(
        labels=Labels({"alertname": "EpcNearlyFull", "job": "sgx"}),
        active_since_ns=0, state=STATE_FIRING, value=100.0,
    )


def test_render_with_violations_and_boxplots():
    report = AnalysisReport(
        time_ns=120 * 10**9,
        firing=[_firing()],
        boxplots={"sgx_epc_free_pages": BoxPlot.from_values([1, 2, 3, 4, 5])},
    )
    text = report.render()
    assert "@ 120s" in text
    assert "firing (1):" in text
    assert "EpcNearlyFull" in text and "= 100" in text
    assert "boxplot sgx_epc_free_pages" in text


def test_render_quiet_report():
    report = AnalysisReport(time_ns=0, firing=[], boxplots={})
    assert "firing: none" in report.render()
