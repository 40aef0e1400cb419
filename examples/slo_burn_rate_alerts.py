#!/usr/bin/env python3
"""SLO burn-rate alerting over an SGX application fleet.

Deploys TEEMon with the alerting engine enabled and a multi-window
burn-rate alert pair (fast page / slow ticket) over the EPC eviction
counter, then pushes a Redis-like enclave through a heavy memtier phase
that burns the paging budget, lets it cool down, and prints the alert
timeline the journal recorded: pending -> firing during the burn,
resolved after the cool-down.  A webhook receiver registered on the
simulated network shows real notification deliveries.

Run:  python examples/slo_burn_rate_alerts.py
"""

from repro.apps import MemtierBenchmark, NginxLikeServer, RedisLikeServer
from repro.frameworks import SconeRuntime
from repro.pmag.alerting import Receiver, Route, burn_rate_rules
from repro.sgx import SgxDriver
from repro.simkernel import Kernel
from repro.teemon import TeemonConfig, deploy


def main() -> None:
    # 1. A simulated SGX host, scraped every 5s, alerts evaluated every 5s.
    kernel = Kernel(seed=11, hostname="sgx-host")
    kernel.load_module(SgxDriver())

    # The SLO: EPC eviction is the paging budget.  The fast window pages
    # on a sharp burn; the slow window files a ticket on sustained burn
    # at a quarter of the threshold.
    rules = burn_rate_rules(
        "sgx_epc_pages_evicted_total",
        fast_threshold=200.0,
        fast_for_s=10.0,
        slow_for_s=30.0,
        name_prefix="EpcBurnRate",
    )
    route = Route(
        receiver="ticket-queue",
        group_by=("alertname",),
        group_interval_s=15.0,
        routes=(
            Route(receiver="oncall-webhook", match=(("severity", "page"),),
                  group_wait_s=0.0, group_interval_s=15.0),
        ),
    )
    config = TeemonConfig(
        scrape_interval_s=5.0,
        enable_alerting=True,
        alert_eval_interval_s=5.0,
        alert_rules=rules,
        alert_route=route,
        alert_receivers=(
            Receiver("ticket-queue"),  # journal-only
            Receiver("oncall-webhook", url="http://oncall:8080/notify"),
        ),
    )
    deployment = deploy(kernel, config)

    # A webhook endpoint for the page receiver, on the same simulated net.
    pages = []
    endpoint = deployment.network.register(
        "oncall", 8080, "/notify", lambda: "ok"
    )
    endpoint.post_handler = lambda body: (pages.append(body), "ok")[1]

    # 2. Burn phase: memtier hammers a Redis enclave sized to evict.
    runtime = SconeRuntime()
    runtime.setup(kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320, pipeline=8)
    bench.prepopulate(runtime, server, keys=720_000, value_size=64)
    result = bench.run(
        runtime, server, duration_s=90.0,
        ebpf_active=True, full_monitoring=True,
    )
    print(f"burn phase: {result.describe()}")

    session = deployment.session
    evicted = session.query("rate(sgx_epc_pages_evicted_total[1m])")
    if evicted:
        print(f"eviction rate during burn: {evicted[0][1]:,.0f} pages/s")
    firing = session.firing_alerts()
    print(f"firing during burn: "
          f"{sorted(inst.name() for inst in firing)}")

    # 3. Cool-down: a light webserver leg, no eviction pressure.  The
    #    slow 5m window needs the whole cool-down to drain.
    web_runtime = SconeRuntime()
    web_runtime.setup(kernel, container_id="nginx")
    web = NginxLikeServer()
    for _ in range(14):
        web.run_load_slice(web_runtime, requests=2_000,
                           duration_ns=30 * 10**9)
        kernel.clock.advance(30 * 10**9)
    print(f"cool-down: served {web.stats.requests:,} web requests")

    resolved = not session.firing_alerts()
    print(f"alerts after cool-down: "
          f"{'all resolved' if resolved else 'still firing'}")

    # 4. What the journal saw, end to end.
    stats = session.notification_stats()
    print(f"webhook pages delivered: {len(pages)}")
    print(f"notification outcomes: {stats['notifications']}")
    print("\nalert timeline:")
    print(session.render_alert_timeline(width=72))


if __name__ == "__main__":
    main()
