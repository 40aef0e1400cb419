"""SEV-aware chart and CLI tests."""


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
