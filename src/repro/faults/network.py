"""A fault-injecting wrapper over the simulated HTTP transport.

:class:`FaultyHttpNetwork` exposes the same surface as
:class:`repro.net.http.HttpNetwork` and owns no routes of its own —
registration, lookup and the actual request dispatch all delegate to the
wrapped network, so handler code (exporters, remote-write receivers) runs
unmodified.  Every request passes through the plan's injectors: a
``before`` hook may short-circuit the request (a flapped-down endpoint
never reaches its handler), ``after`` hooks mangle the response and add
latency.  The injected latency is surfaced on
:attr:`repro.net.http.HttpResponse.latency_s`, which consumers compare
against their timeout budget.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.net.http import HttpEndpoint, HttpNetwork, HttpResponse, parse_url
from repro.trace.context import TRACEPARENT_HEADER


class FaultyHttpNetwork:
    """Drop-in :class:`HttpNetwork` with a fault plan in the request path."""

    def __init__(self, inner: HttpNetwork, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        #: Requests whose outcome was altered by at least one fault.
        self.requests_faulted = 0

    # ------------------------------------------------------------------
    # Route management — pure delegation
    # ------------------------------------------------------------------
    def register(self, host: str, port: int, path: str,
                 handler: Callable[[], str]) -> HttpEndpoint:
        """Expose a route on the wrapped network."""
        return self.inner.register(host, port, path, handler)

    def unregister(self, host: str, port: int, path: str) -> None:
        """Remove a route from the wrapped network."""
        self.inner.unregister(host, port, path)

    def endpoints(self) -> List[HttpEndpoint]:
        """All registered endpoints."""
        return self.inner.endpoints()

    def lookup(self, host: str, port: int, path: str) -> Optional[HttpEndpoint]:
        """Find an endpoint without issuing a request."""
        return self.inner.lookup(host, port, path)

    @property
    def requests_served(self) -> int:
        """Successful requests on the wrapped network."""
        return self.inner.requests_served

    # ------------------------------------------------------------------
    # Request path — inject around the wrapped network
    # ------------------------------------------------------------------
    def _request(self, url: str, method: str,
                 dispatch: Callable[[], HttpResponse],
                 headers: Optional[Mapping[str, str]]) -> HttpResponse:
        ctx = self.plan.begin(url, method)
        if ctx.response is None:
            ctx.response = dispatch()
        self.plan.finish(ctx)
        if ctx.applied:
            self.requests_faulted += 1
        response = ctx.response
        # Fault-synthesized responses (a flapped-down 503, a stale replay)
        # never passed through the real transport, so re-attach the trace
        # context the transport would have echoed.
        traceparent = None if headers is None else headers.get(TRACEPARENT_HEADER)
        needs_echo = (traceparent is not None
                      and response.headers.get(TRACEPARENT_HEADER) != traceparent)
        if ctx.latency_s or needs_echo:
            response_headers = dict(response.headers)
            if traceparent is not None:
                response_headers[TRACEPARENT_HEADER] = traceparent
            response = HttpResponse(
                status=response.status, body=response.body,
                latency_s=response.latency_s + ctx.latency_s,
                headers=response_headers,
            )
        return response

    def get(self, host: str, port: int, path: str,
            headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """GET through the fault layer."""
        url = f"http://{host}:{port}{path}"
        return self._request(url, "GET",
                             lambda: self.inner.get(host, port, path,
                                                    headers=headers),
                             headers)

    def get_url(self, url: str,
                headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """GET by URL through the fault layer."""
        host, port, path = parse_url(url)
        return self.get(host, port, path, headers=headers)

    def post(self, host: str, port: int, path: str, body: str,
             headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """POST through the fault layer."""
        url = f"http://{host}:{port}{path}"
        return self._request(url, "POST",
                             lambda: self.inner.post(host, port, path, body,
                                                     headers=headers),
                             headers)

    def post_url(self, url: str, body: str,
                 headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        """POST by URL through the fault layer."""
        host, port, path = parse_url(url)
        return self.post(host, port, path, body, headers=headers)
