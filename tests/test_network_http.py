"""Simulated network and HTTP layer tests."""

import pytest

from repro.errors import NetworkError
from repro.net.http import HttpNetwork, parse_url
from repro.net.network import GBIT, Link


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------
def test_payload_bandwidth_below_raw():
    link = Link()
    assert link.payload_bytes_per_s < link.bandwidth_bits_per_s / 8


def test_default_is_one_gbe():
    assert Link().bandwidth_bits_per_s == 1 * GBIT


def test_utilisation():
    link = Link()
    assert link.utilisation(link.payload_bytes_per_s) == pytest.approx(1.0)


def test_queueing_delay_grows_with_load():
    link = Link()
    low = link.queueing_delay_s(0.1 * link.payload_bytes_per_s)
    high = link.queueing_delay_s(0.9 * link.payload_bytes_per_s)
    assert high > low


def test_queueing_delay_clamped_at_saturation():
    link = Link()
    assert link.queueing_delay_s(10 * link.payload_bytes_per_s) == 0.1


def test_transfer_time_includes_base_latency():
    link = Link()
    assert link.transfer_time_s(0) >= link.base_latency_s


def test_invalid_link_parameters_rejected():
    with pytest.raises(NetworkError):
        Link(bandwidth_bits_per_s=0)
    with pytest.raises(NetworkError):
        Link(protocol_efficiency=0.0)


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------
def test_register_and_get():
    net = HttpNetwork()
    net.register("host", 9100, "/metrics", lambda: "body")
    response = net.get("host", 9100, "/metrics")
    assert response.ok
    assert response.body == "body"
    assert net.requests_served == 1


def test_get_unknown_is_404_not_exception():
    net = HttpNetwork()
    response = net.get("nope", 80, "/")
    assert response.status == 404
    assert not response.ok
    assert net.requests_failed == 1


def test_unhealthy_endpoint_is_503():
    net = HttpNetwork()
    endpoint = net.register("host", 80, "/", lambda: "x")
    endpoint.healthy = False
    assert net.get("host", 80, "/").status == 503


def test_handler_exception_is_500():
    net = HttpNetwork()

    def boom():
        raise RuntimeError("kaput")

    net.register("host", 80, "/", boom)
    response = net.get("host", 80, "/")
    assert response.status == 500
    assert "kaput" in response.body


def test_double_registration_rejected():
    net = HttpNetwork()
    net.register("h", 80, "/", lambda: "a")
    with pytest.raises(NetworkError):
        net.register("h", 80, "/", lambda: "b")


def test_unregister():
    net = HttpNetwork()
    net.register("h", 80, "/", lambda: "a")
    net.unregister("h", 80, "/")
    assert net.get("h", 80, "/").status == 404
    with pytest.raises(NetworkError):
        net.unregister("h", 80, "/")


def test_get_by_url():
    net = HttpNetwork()
    endpoint = net.register("node-0", 9100, "/metrics", lambda: "m")
    assert endpoint.url == "http://node-0:9100/metrics"
    assert net.get_url(endpoint.url).body == "m"


def test_parse_url_variants():
    assert parse_url("http://h:90/a/b") == ("h", 90, "/a/b")
    assert parse_url("http://h/x") == ("h", 80, "/x")
    assert parse_url("http://h") == ("h", 80, "/")


def test_parse_url_no_path_with_port():
    assert parse_url("http://h:9100") == ("h", 9100, "/")


def test_parse_url_default_port_80():
    host, port, path = parse_url("http://node-0/metrics")
    assert (host, port, path) == ("node-0", 80, "/metrics")


def test_parse_url_trailing_slash_only():
    assert parse_url("http://h:90/") == ("h", 90, "/")


def test_parse_url_errors():
    with pytest.raises(NetworkError):
        parse_url("https://h/")
    with pytest.raises(NetworkError):
        parse_url("http://h:abc/")
    with pytest.raises(NetworkError):
        parse_url("http://:80/")


def test_parse_url_empty_port_rejected():
    with pytest.raises(NetworkError):
        parse_url("http://h:/metrics")
    with pytest.raises(NetworkError):
        parse_url("http://h:")


def test_parse_url_empty_host_variants_rejected():
    with pytest.raises(NetworkError):
        parse_url("http://")
    with pytest.raises(NetworkError):
        parse_url("http:///metrics")
    with pytest.raises(NetworkError):
        parse_url("http://:9100")


def test_parse_url_non_http_scheme_and_bare_host_rejected():
    with pytest.raises(NetworkError):
        parse_url("ftp://h/")
    with pytest.raises(NetworkError):
        parse_url("h:9100/metrics")


def test_post_on_get_only_endpoint_is_405():
    net = HttpNetwork()
    net.register("h", 80, "/metrics", lambda: "m 1\n")
    response = net.post("h", 80, "/metrics", "payload")
    assert response.status == 405
    assert not response.ok
    assert net.requests_failed == 1
    # The GET path is untouched by the failed POST.
    assert net.get("h", 80, "/metrics").ok


def test_post_unknown_and_unhealthy_endpoints():
    net = HttpNetwork()
    assert net.post("nope", 80, "/", "x").status == 404
    endpoint = net.register("h", 80, "/", lambda: "ok")
    endpoint.post_handler = lambda body: body.upper()
    endpoint.healthy = False
    assert net.post("h", 80, "/", "x").status == 503
    endpoint.healthy = True
    assert net.post_url("http://h:80/", "x").body == "X"


def test_post_handler_exception_is_500():
    net = HttpNetwork()
    endpoint = net.register("h", 80, "/", lambda: "ok")

    def boom(body):
        raise RuntimeError("post kaput")

    endpoint.post_handler = boom
    response = net.post("h", 80, "/", "x")
    assert response.status == 500
    assert "post kaput" in response.body


# ---------------------------------------------------------------------------
# Requests, headers and trace-context propagation
# ---------------------------------------------------------------------------
def test_http_request_object_dispatch():
    from repro.net.http import HttpRequest

    net = HttpNetwork()
    net.register("h", 9100, "/metrics", lambda: "body")
    request = HttpRequest(method="GET", host="h", port=9100, path="/metrics")
    assert request.url == "http://h:9100/metrics"
    response = net.request(request)
    assert response.ok and response.body == "body"


def test_positional_get_post_signatures_still_work():
    net = HttpNetwork()
    endpoint = net.register("h", 80, "/", lambda: "ok")
    endpoint.post_handler = lambda body: body[::-1]
    assert net.get("h", 80, "/").body == "ok"
    assert net.post("h", 80, "/", "abc").body == "cba"


def test_traceparent_echoed_on_success():
    from repro.trace import TRACEPARENT_HEADER

    net = HttpNetwork()
    net.register("h", 80, "/", lambda: "ok")
    header = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
    response = net.get("h", 80, "/", headers={TRACEPARENT_HEADER: header})
    assert response.headers[TRACEPARENT_HEADER] == header


def test_response_headers_empty_without_request_headers():
    net = HttpNetwork()
    net.register("h", 80, "/", lambda: "ok")
    assert dict(net.get("h", 80, "/").headers) == {}


def test_handler_exception_preserves_trace_context():
    from repro.trace import TRACEPARENT_HEADER

    net = HttpNetwork()

    def boom():
        raise RuntimeError("kaput")

    net.register("h", 80, "/", boom)
    header = "00-" + "c" * 32 + "-" + "d" * 16 + "-01"
    response = net.get("h", 80, "/", headers={TRACEPARENT_HEADER: header})
    assert response.status == 500
    assert response.headers[TRACEPARENT_HEADER] == header


def test_404_and_503_and_405_echo_trace_context():
    from repro.trace import TRACEPARENT_HEADER

    net = HttpNetwork()
    header = "00-" + "e" * 32 + "-" + "f" * 16 + "-01"
    headers = {TRACEPARENT_HEADER: header}
    assert net.get("nope", 80, "/", headers=headers).headers[
        TRACEPARENT_HEADER] == header
    endpoint = net.register("h", 80, "/", lambda: "ok")
    endpoint.healthy = False
    assert net.get("h", 80, "/", headers=headers).headers[
        TRACEPARENT_HEADER] == header
    endpoint.healthy = True
    assert net.post("h", 80, "/", "x", headers=headers).headers[
        TRACEPARENT_HEADER] == header  # 405: no post handler
