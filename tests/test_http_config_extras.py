"""Tests: HTTP POST, eBPF config file, scrape metadata."""

import pytest

from repro.exporters.ebpf_exporter import EbpfExporterConfig
from repro.net.http import HttpNetwork
from repro.simkernel.clock import VirtualClock, seconds


# ---------------------------------------------------------------------------
# HTTP POST
# ---------------------------------------------------------------------------
def test_post_roundtrip():
    net = HttpNetwork()
    received = []
    endpoint = net.register("hook", 8080, "/alerts", lambda: "GET ok")
    endpoint.post_handler = lambda body: (received.append(body), "accepted")[1]
    response = net.post("hook", 8080, "/alerts", "payload")
    assert response.ok and response.body == "accepted"
    assert received == ["payload"]


def test_post_without_handler_is_405():
    net = HttpNetwork()
    net.register("h", 80, "/", lambda: "x")
    assert net.post("h", 80, "/", "b").status == 405


def test_post_unknown_404_and_error_500():
    net = HttpNetwork()
    assert net.post("nope", 80, "/", "b").status == 404
    endpoint = net.register("h", 80, "/", lambda: "x")

    def boom(body):
        raise RuntimeError("kaput")

    endpoint.post_handler = boom
    assert net.post("h", 80, "/", "b").status == 500


# ---------------------------------------------------------------------------
# eBPF config file
# ---------------------------------------------------------------------------
def test_ebpf_config_parse_and_render_roundtrip():
    original = EbpfExporterConfig(cache=False, pid_filter=4242)
    restored = EbpfExporterConfig.parse(original.render())
    assert restored == original


def test_ebpf_config_parse_defaults_and_comments():
    config = EbpfExporterConfig.parse(
        "# comment only\nprograms.cache = off\n"
    )
    assert config.cache is False
    assert config.syscalls is True
    assert config.pid_filter is None


def test_ebpf_config_parse_errors():
    with pytest.raises(ValueError, match="expected key"):
        EbpfExporterConfig.parse("not an assignment")
    with pytest.raises(ValueError, match="on/off"):
        EbpfExporterConfig.parse("programs.cache = maybe")
    with pytest.raises(ValueError, match="integer"):
        EbpfExporterConfig.parse("filter.pid = xyz")


def test_ebpf_config_file_drives_exporter(sgx_kernel):
    from repro.exporters import EbpfExporter

    config = EbpfExporterConfig.parse(
        "programs.cache = off\nfilter.pid = 42\n"
    )
    exporter = EbpfExporter(sgx_kernel, config=config)
    hooks = {a.hook for a in exporter.runtime.attachments()}
    assert "PERF_COUNT_HW_CACHE_MISSES" not in hooks
    sgx_kernel.syscalls.dispatch("read", 42, count=3)
    sgx_kernel.syscalls.dispatch("read", 7, count=9)
    counts = dict(exporter.runtime.maps.get(
        exporter._map_fds["syscall_counts"]).items())
    assert counts == {0: 3}


# ---------------------------------------------------------------------------
# Scrape metadata
# ---------------------------------------------------------------------------
def test_scrape_metadata_recorded():
    from repro.openmetrics import CollectorRegistry, encode_registry
    from repro.pmag.scrape import ScrapeManager, ScrapeTarget
    from repro.pmag.tsdb import Tsdb

    clock = VirtualClock()
    net = HttpNetwork()
    registry = CollectorRegistry()
    registry.counter("events_total", "e").inc(5)
    net.register("h", 9100, "/metrics", lambda: encode_registry(registry))
    tsdb = Tsdb()
    manager = ScrapeManager(clock, net, tsdb)
    manager.add_target(ScrapeTarget(job="t", instance="h",
                                    url="http://h:9100/metrics"))
    clock.advance(seconds(1))
    manager.scrape_once()
    duration = tsdb.latest("scrape_duration_seconds")
    samples = tsdb.latest("scrape_samples_scraped")
    assert duration is not None and duration.value > 0
    assert samples is not None and samples.value == 1.0
