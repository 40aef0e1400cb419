#!/usr/bin/env python3
"""Quickstart: monitor an SGX application with TEEMon.

Stands up one simulated SGX host, deploys the full TEEMon stack on it,
runs a Redis-like server under the SCONE runtime while memtier-style load
hammers it, and then inspects what TEEMon saw: the SGX dashboard, syscall
rates, EPC pressure, and any alerts PMAN raised.

Run:  python examples/quickstart.py
"""

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.frameworks import SconeRuntime
from repro.sgx import SgxDriver
from repro.simkernel import Kernel
from repro.teemon import TeemonConfig, deploy


def main() -> None:
    # 1. A simulated host with SGX: load the (instrumented) driver.
    kernel = Kernel(seed=7, hostname="sgx-host")
    kernel.load_module(SgxDriver())

    # 2. Deploy TEEMon: exporters, aggregation, analysis, dashboards.
    deployment = deploy(kernel, TeemonConfig(scrape_interval_s=5.0))

    # 3. Run Redis inside an enclave via SCONE, under memtier load.
    runtime = SconeRuntime()
    runtime.setup(kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320, pipeline=8)
    db_bytes = bench.prepopulate(runtime, server, keys=720_000, value_size=64)
    print(f"populated 720k keys, database size {db_bytes // (1024 * 1024)} MB")

    result = bench.run(
        runtime, server, duration_s=120.0,
        ebpf_active=True, full_monitoring=True,
    )
    print(f"benchmark: {result.describe()}\n")

    # 4. Ask TEEMon what happened.
    session = deployment.session
    session.set_process_filter(runtime.process.pid)

    print("top syscall rates (from the TSDB):")
    for name, rate in sorted(
        session.syscall_rates().items(), key=lambda kv: -kv[1]
    )[:5]:
        print(f"  {name:<16} {rate:>12,.0f} /s")

    print(f"\nfree EPC pages: {session.epc_free_pages():,.0f}")
    evicted = session.query("rate(sgx_epc_pages_evicted_total[1m])")
    if evicted:
        print(f"EPC eviction rate: {evicted[0][1]:,.0f} pages/s")

    alerts = session.active_alerts()
    print(f"\nactive alerts ({len(alerts)}):")
    for alert in alerts:
        print(f"  [{alert.labels.get('severity')}] {alert.name()} "
              f"= {alert.value:,.0f}")

    print("\n" + session.render("sgx", width=76))
    deployment.shutdown()


if __name__ == "__main__":
    main()
