"""TEEMon facade tests: config, deployment, session."""

import pytest

from repro.errors import DeploymentError
from repro.pmag.alerting import AlertingRule
from repro.simkernel.clock import seconds
from repro.simkernel.kernel import Kernel
from repro.teemon import TeemonConfig, deploy
from repro.teemon.deploy import SERVICE_FOOTPRINTS

MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------
def test_config_defaults_follow_paper():
    config = TeemonConfig()
    assert config.scrape_interval_s == 5.0     # §5 default query rate
    assert config.analysis_window_s == 300.0   # "last five minutes"
    assert config.analysis_every_s == 60.0     # "every minute"


def test_config_validation():
    with pytest.raises(DeploymentError):
        TeemonConfig(scrape_interval_s=0)
    with pytest.raises(DeploymentError):
        TeemonConfig(retention_hours=0)


def test_shard_fan_out_takes_no_worker_threads():
    assert TeemonConfig(storage_executor_workers=0).storage_executor_workers == 0
    with pytest.raises(DeploymentError, match="calling thread"):
        TeemonConfig(storage_executor_workers=1)


def test_unsafe_remote_write_sender_is_rejected_before_any_timer():
    """A sender with a space used to be accepted and then raise WalError
    from the first uplink flush tick, out of ``VirtualClock.run_until``."""
    url = "http://root:9009/api/v1/write"
    for sender in ("my leaf", "my\nleaf"):
        with pytest.raises(DeploymentError, match="wire-safe"):
            TeemonConfig(remote_write_url=url, remote_write_source=sender)
    # The hostname fallback gets the same check, at build.
    spaced = Kernel(seed=3, hostname="my leaf")
    with pytest.raises(DeploymentError, match="wire-safe"):
        deploy(spaced, TeemonConfig(enable_tme=False, remote_write_url=url))
    # An explicit source makes the same host deployable, and a host that
    # ships nowhere never needed a wire-safe name.
    named = deploy(spaced, TeemonConfig(
        enable_tme=False, remote_write_url=url, remote_write_source="leaf"))
    spaced.clock.advance(seconds(12))  # past two uplink flush ticks
    named.shutdown()
    deploy(Kernel(seed=3, hostname="my leaf"),
           TeemonConfig(enable_tme=False), start=False)


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------
def test_deploy_creates_all_exporters(sgx_kernel):
    deployment = deploy(sgx_kernel, start=False)
    assert set(deployment.exporters) == {"sgx", "ebpf", "node", "cadvisor"}
    assert set(deployment.services) == set(SERVICE_FOOTPRINTS)


def test_deploy_without_driver_needs_tme_disabled(kernel):
    with pytest.raises(DeploymentError, match="isgx"):
        deploy(kernel, start=False)
    deployment = deploy(kernel, TeemonConfig(enable_tme=False), start=False)
    assert "sgx" not in deployment.exporters


def test_deploy_scrapes_periodically(sgx_kernel):
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(30))
    assert deployment.tsdb.latest("up") is not None
    assert deployment.tsdb.latest("sgx_epc_free_pages") is not None
    deployment.shutdown()


def _component_rss(deployment):
    """Resident memory of each component's process, as Fig. 4 reads it."""
    rss = {exporter.PROCESS_NAME: exporter.process.rss_bytes
           for exporter in deployment.exporters.values()}
    rss.update((name, service.process.rss_bytes)
               for name, service in deployment.services.items())
    return rss


def test_deploy_total_memory_is_700mb(sgx_kernel):
    deployment = deploy(sgx_kernel, start=False)
    assert sum(_component_rss(deployment).values()) == 700 * MIB


def test_prometheus_is_4x_next_largest(sgx_kernel):
    deployment = deploy(sgx_kernel, start=False)
    rss = _component_rss(deployment)
    prometheus = rss.pop("prometheus")
    assert prometheus >= 4 * max(rss.values())


def test_start_stop_lifecycle(sgx_kernel):
    deployment = deploy(sgx_kernel, start=False)
    with pytest.raises(DeploymentError):
        deployment.stop()
    deployment.start()
    with pytest.raises(DeploymentError):
        deployment.start()
    deployment.stop()


def test_stop_halts_scraping(sgx_kernel):
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(10))
    count_before = deployment.tsdb.sample_count()
    deployment.stop()
    sgx_kernel.clock.advance(seconds(60))
    assert deployment.tsdb.sample_count() == count_before


def test_service_processes_charged_cpu_while_running(sgx_kernel):
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(1000))
    prometheus = deployment.services["prometheus"].process
    expected_fraction = SERVICE_FOOTPRINTS["prometheus"].cpu_fraction
    measured = prometheus.cpu_time_ns / seconds(1000)
    assert measured == pytest.approx(expected_fraction, rel=0.05)
    deployment.shutdown()


def test_shutdown_exits_all_processes(sgx_kernel):
    deployment = deploy(sgx_kernel)
    deployment.shutdown()
    names = {p.name for p in sgx_kernel.processes()}
    assert "prometheus" not in names
    assert "ebpf-exporter" not in names


def test_stopped_exporter_container_stops_serving(sgx_kernel):
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(10))
    url = deployment.exporters["node"].url
    deployment.docker.stop("node-exporter")
    assert deployment.network.get_url(url).status == 404
    sgx_kernel.clock.advance(seconds(10))
    session = deployment.session
    ups = {labels.get("job"): value for labels, value in session.query("up")}
    assert ups["node"] == 0.0
    assert ups["sgx"] == 1.0
    deployment.shutdown()


def test_shutdown_withdraws_every_endpoint(sgx_kernel):
    deployment = deploy(sgx_kernel)
    urls = [exporter.url for exporter in deployment.exporters.values()]
    urls.append(deployment.self_exporter.url)
    deployment.shutdown()
    for url in urls:
        assert deployment.network.get_url(url).status == 404, url


def test_container_images_keep_their_own_exporter(sgx_kernel):
    # Each image's entrypoint restarts the exporter it was built for,
    # not whichever catalog class the install loop ended on.
    deployment = deploy(sgx_kernel, start=False)
    containers = deployment.docker.containers()
    deployment.shutdown()
    for container in containers:
        restarted = container.image.entrypoint(sgx_kernel, "restart-probe")
        assert type(restarted) is type(container.component), container.name
        assert vars(restarted).get("config") == vars(container.component).get("config")
        restarted.shutdown()


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
def test_session_queries_and_rates(sgx_kernel):
    deployment = deploy(sgx_kernel)
    process = sgx_kernel.spawn_process("redis-server")
    for _ in range(24):
        sgx_kernel.syscalls.dispatch("clock_gettime", process.pid, count=50_000)
        sgx_kernel.clock.advance(seconds(5))
    rates = deployment.session.syscall_rates()
    assert rates["clock_gettime"] == pytest.approx(10_000, rel=0.05)
    assert deployment.session.epc_free_pages() is not None
    deployment.shutdown()


def test_session_render_and_filter(sgx_kernel):
    deployment = deploy(sgx_kernel)
    sgx_kernel.clock.advance(seconds(10))
    deployment.session.set_process_filter(4242)
    text = deployment.session.render("sgx")
    assert "TEEMon / SGX" in text
    assert "$process=4242" in text
    with pytest.raises(DeploymentError):
        deployment.session.render("nonexistent")
    deployment.shutdown()


def test_session_alerts_flow_from_analyzer(sgx_kernel):
    deployment = deploy(sgx_kernel)
    process = sgx_kernel.spawn_process("redis-server")
    # Sustain a clock_gettime storm over the analysis window.
    for _ in range(80):
        sgx_kernel.syscalls.dispatch("clock_gettime", process.pid, count=400_000 * 5)
        sgx_kernel.clock.advance(seconds(5))
    alerts = deployment.session.active_alerts()
    assert any(a.name() == "ClockGettimeDominance" for a in alerts)
    assert any("ClockGettimeDominance" in line for line in deployment.session.alert_log())
    deployment.shutdown()


def test_malformed_pman_rule_does_not_stop_the_analyzer(sgx_kernel):
    typo = AlertingRule("Typo", "rate(sgx_epc_pages_evicted_total[5m] > 1")
    reported = AlertingRule("EpcReported", "sgx_epc_free_pages > 0")
    deployment = deploy(sgx_kernel, TeemonConfig(extra_rules=[typo, reported]))
    sgx_kernel.clock.advance(seconds(121))
    analyzer = deployment.analyzer
    assert analyzer.analyses_total == 2
    assert analyzer.group.last_error.startswith("alert:Typo: ")
    assert [a.name() for a in deployment.session.active_alerts()] == [
        "EpcReported"
    ]
    deployment.shutdown()


@pytest.mark.parametrize("overrides,duplicate", [
    # Two PMAN rules of one name resolved each other's alert every tick.
    ({"extra_rules": [
        AlertingRule("EpcNearlyFull", "sgx_epc_free_pages < 1024")]},
     "EpcNearlyFull"),
    ({"enable_alerting": True, "alert_rules": [
        AlertingRule("Storm", "up == 0"), AlertingRule("Storm", "up == 1")]},
     "Storm"),
    ({"enable_alerting": True, "extra_rules": [
        AlertingRule("TargetDown", "up == 0")]},
     "TargetDown"),
])
def test_alert_names_are_unique_across_pman_and_alerting(
        sgx_kernel, overrides, duplicate):
    with pytest.raises(DeploymentError, match=f"duplicate.*{duplicate}"):
        deploy(sgx_kernel, TeemonConfig(**overrides))
