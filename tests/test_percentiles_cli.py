"""Latency percentiles, SEV-aware chart, and CLI tests."""

import pytest

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.apps.clients import SlicePoint
from repro.errors import ReproError
from repro.frameworks.native import NativeRuntime


# ---------------------------------------------------------------------------
# Latency percentiles
# ---------------------------------------------------------------------------
def test_slice_percentiles_ordered():
    point = SlicePoint(time_s=0, throughput_rps=1000, latency_ms=10.0,
                       utilisation=0.5)
    p50 = point.latency_percentile(0.50)
    p95 = point.latency_percentile(0.95)
    p99 = point.latency_percentile(0.99)
    p999 = point.latency_percentile(0.999)
    assert p50 < p95 < p99 < p999
    assert p50 < 10.0  # median below the mean for a right-skewed tail


def test_tail_fattens_with_utilisation():
    relaxed = SlicePoint(0, 1000, 10.0, utilisation=0.1)
    saturated = SlicePoint(0, 1000, 10.0, utilisation=0.95)
    assert (saturated.latency_percentile(0.99) / saturated.latency_percentile(0.50)
            > relaxed.latency_percentile(0.99) / relaxed.latency_percentile(0.50))


def test_unsupported_percentile_rejected():
    point = SlicePoint(0, 1000, 10.0)
    with pytest.raises(ReproError):
        point.latency_percentile(0.42)


def test_run_level_percentiles(kernel):
    runtime = NativeRuntime()
    runtime.setup(kernel)
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320)
    bench.prepopulate(runtime, server, value_size=32)
    result = bench.run(runtime, server, duration_s=5.0)
    p50 = result.latency_percentile_ms(0.50)
    p99 = result.latency_percentile_ms(0.99)
    assert 0 < p50 < result.latency_ms < p99


def test_empty_result_percentile_is_inf():
    from repro.apps.clients import BenchmarkResult

    result = BenchmarkResult(
        framework="x", connections=8, pipeline=8, db_bytes=0, value_size=0,
        duration_s=0, requests_total=0, throughput_rps=0, latency_ms=0,
    )
    assert result.latency_percentile_ms(0.99) == float("inf")


# ---------------------------------------------------------------------------
# SEV-aware cluster + chart
# ---------------------------------------------------------------------------
def test_sev_node_auto_labelled_and_chart_places_exporter():
    from repro.net import HttpNetwork
    from repro.orchestration import Cluster, Node, install_teemon_chart
    from repro.sev import SevDriver
    from repro.sgx import SgxDriver
    from repro.simkernel.clock import VirtualClock, seconds
    from repro.simkernel.kernel import Kernel

    clock = VirtualClock()
    cluster = Cluster(clock)
    sgx_node = Kernel(seed=1, hostname="sgx-n", clock=clock)
    sgx_node.load_module(SgxDriver())
    sev_node = Kernel(seed=2, hostname="sev-n", clock=clock)
    sev_node.load_module(SevDriver())
    cluster.add_node(Node(sgx_node))
    cluster.add_node(Node(sev_node))
    release = install_teemon_chart(cluster, HttpNetwork())
    placement = {}
    for pod in cluster.pods():
        placement.setdefault(pod.spec.name, []).append(pod.node_name)
    assert placement["teemon-sgx-exporter"] == ["sgx-n"]
    assert placement["teemon-sev-exporter"] == ["sev-n"]
    clock.advance(seconds(15))
    assert release.deployment.tsdb.latest("sev_asids_free") is not None
    assert release.deployment.tsdb.latest("sgx_epc_free_pages") is not None
    release.uninstall()


def test_chart_sev_can_be_disabled():
    from repro.net import HttpNetwork
    from repro.orchestration import Cluster, Node, install_teemon_chart
    from repro.sev import SevDriver
    from repro.simkernel.clock import VirtualClock
    from repro.simkernel.kernel import Kernel

    clock = VirtualClock()
    cluster = Cluster(clock)
    node = Kernel(seed=3, hostname="n", clock=clock)
    node.load_module(SevDriver())
    cluster.add_node(Node(node))
    release = install_teemon_chart(cluster, HttpNetwork(),
                                   {"sev.enabled": False})
    assert not any(
        p.spec.name == "teemon-sev-exporter" for p in cluster.pods()
    )
    release.uninstall()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "table1" in output and "fig11" in output


def test_cli_runs_single_experiment(capsys):
    from repro.__main__ import main

    assert main(["experiments", "table2"]) == 0
    assert "System metrics collected" in capsys.readouterr().out


def test_cli_rejects_unknown(capsys):
    from repro.__main__ import main

    assert main(["experiments", "fig99"]) == 2
    assert main(["bogus"]) == 2
    assert main([]) == 0  # help
