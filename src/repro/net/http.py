"""A minimal simulated HTTP layer for metric scraping.

Exporters register endpoints (host, port, path) whose bodies are produced
by a callable at request time — the same shape as a Flask route returning
the OpenMetrics text (§5.1 of the paper describes the SGX exporter doing
exactly this).  The aggregator issues GETs through
:class:`HttpNetwork.get`, which also serves as the health-check transport:
a missing endpoint yields a 404-ish failure the scrape manager records as
a down target.

Requests and responses carry a headers mapping.  The transport itself is
header-agnostic except for one rule: a request's ``traceparent`` header
(W3C trace context, see :mod:`repro.trace.context`) is echoed onto every
response — including 404/500/503 failures — so the client's trace context
survives any server-side outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import NetworkError
from repro.trace.context import TRACEPARENT_HEADER

_NO_HEADERS: Mapping[str, str] = {}


@dataclass(frozen=True)
class HttpRequest:
    """An HTTP request: method, target, headers, body.

    The positional :meth:`HttpNetwork.get`/:meth:`HttpNetwork.post`
    signatures build these internally; callers that need headers (trace
    propagation) pass a ``headers`` mapping or dispatch a request object
    through :meth:`HttpNetwork.request`.
    """

    method: str
    host: str
    port: int
    path: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: str = ""

    @property
    def url(self) -> str:
        """Canonical URL of the request target."""
        return f"http://{self.host}:{self.port}{self.path}"


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response (status + body + headers).

    ``latency_s`` is the modelled wall time the request took.  The base
    :class:`HttpNetwork` always reports 0.0 (an ideal transport); the fault
    layer (:mod:`repro.faults`) wraps responses with injected delays, and
    consumers with a timeout budget (the scrape manager, the remote-write client)
    compare against it instead of blocking — virtual time only moves
    through the clock.
    """

    status: int
    body: str
    latency_s: float = 0.0
    headers: Mapping[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether the status is a success."""
        return 200 <= self.status < 300


@dataclass
class HttpEndpoint:
    """A registered HTTP route.

    ``handler`` serves GETs (no body); ``post_handler``, when present,
    serves POSTs (body in, body out).
    """

    host: str
    port: int
    path: str
    handler: Callable[[], str]
    post_handler: Optional[Callable[[str], str]] = None
    healthy: bool = True

    @property
    def url(self) -> str:
        """Canonical URL of the endpoint."""
        return f"http://{self.host}:{self.port}{self.path}"


def _echo_headers(request_headers: Mapping[str, str]) -> Mapping[str, str]:
    """Response headers the transport always carries back: trace context."""
    traceparent = request_headers.get(TRACEPARENT_HEADER)
    if traceparent is None:
        return _NO_HEADERS
    return {TRACEPARENT_HEADER: traceparent}


class HttpNetwork:
    """Routes simulated HTTP requests to registered endpoints."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[str, int, str], HttpEndpoint] = {}
        self.requests_served = 0
        self.requests_failed = 0

    def register(
        self, host: str, port: int, path: str, handler: Callable[[], str]
    ) -> HttpEndpoint:
        """Expose a route; replaces nothing — double registration is an error."""
        key = (host, port, path)
        if key in self._routes:
            raise NetworkError(f"endpoint already registered: {host}:{port}{path}")
        endpoint = HttpEndpoint(host=host, port=port, path=path, handler=handler)
        self._routes[key] = endpoint
        return endpoint

    def unregister(self, host: str, port: int, path: str) -> None:
        """Remove a route (service gone)."""
        key = (host, port, path)
        if key not in self._routes:
            raise NetworkError(f"no such endpoint: {host}:{port}{path}")
        del self._routes[key]

    def endpoints(self) -> List[HttpEndpoint]:
        """All registered endpoints."""
        return list(self._routes.values())

    def lookup(self, host: str, port: int, path: str) -> Optional[HttpEndpoint]:
        """Find an endpoint without issuing a request."""
        return self._routes.get((host, port, path))

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def request(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request.

        Unknown routes return 404 and unhealthy endpoints 503 — both are
        *responses*, not exceptions, because scrape targets going away is a
        normal condition the scrape manager must observe and report.
        Handler exceptions become 500s for the same reason.  Every outcome,
        including failures, echoes the request's trace context back.
        """
        echo = _echo_headers(request.headers)
        endpoint = self._routes.get((request.host, request.port, request.path))
        if endpoint is None:
            self.requests_failed += 1
            return HttpResponse(status=404, body="not found", headers=echo)
        if not endpoint.healthy:
            self.requests_failed += 1
            return HttpResponse(status=503, body="service unavailable", headers=echo)
        if request.method == "GET":
            serve: Callable[[], str] = endpoint.handler
        elif request.method == "POST":
            if endpoint.post_handler is None:
                self.requests_failed += 1
                return HttpResponse(status=405, body="method not allowed",
                                    headers=echo)
            serve = lambda: endpoint.post_handler(request.body)  # noqa: E731
        else:
            self.requests_failed += 1
            return HttpResponse(status=405, body="method not allowed", headers=echo)
        try:
            body = serve()
        except Exception as exc:  # noqa: BLE001 - fault barrier by design
            self.requests_failed += 1
            return HttpResponse(status=500, body=f"internal error: {exc}",
                                headers=echo)
        self.requests_served += 1
        return HttpResponse(status=200, body=body, headers=echo)

    def get(self, host: str, port: int, path: str,
            headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """Issue a GET (optionally with headers, e.g. ``traceparent``)."""
        return self.request(HttpRequest(
            method="GET", host=host, port=port, path=path,
            headers=headers if headers is not None else _NO_HEADERS,
        ))

    def get_url(self, url: str,
                headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """GET by URL string (http://host:port/path)."""
        host, port, path = parse_url(url)
        return self.get(host, port, path, headers=headers)

    def post(self, host: str, port: int, path: str, body: str,
             headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """Issue a POST; requires the endpoint to accept POSTs."""
        return self.request(HttpRequest(
            method="POST", host=host, port=port, path=path, body=body,
            headers=headers if headers is not None else _NO_HEADERS,
        ))

    def post_url(self, url: str, body: str,
                 headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """POST by URL string."""
        host, port, path = parse_url(url)
        return self.post(host, port, path, body, headers=headers)


def parse_url(url: str) -> Tuple[str, int, str]:
    """Split an http:// URL into (host, port, path)."""
    prefix = "http://"
    if not url.startswith(prefix):
        raise NetworkError(f"only http:// URLs are supported: {url}")
    rest = url[len(prefix):]
    if "/" in rest:
        authority, _, path = rest.partition("/")
        path = "/" + path
    else:
        authority, path = rest, "/"
    if ":" in authority:
        host, _, port_text = authority.partition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise NetworkError(f"bad port in URL: {url}") from None
    else:
        host, port = authority, 80
    if not host:
        raise NetworkError(f"missing host in URL: {url}")
    return host, port, path
