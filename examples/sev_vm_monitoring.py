#!/usr/bin/env python3
"""Monitoring a VM-based TEE (AMD SEV) — the paper's §4 extension vision.

TEEMon's design claim: supporting a new TEE requires a new metrics
exporter, not a new monitoring stack.  This example stands up an AMD-SEV
host (the ``ccp`` driver + a qemu-side extension), launches protected VMs,
and scrapes the SEV exporter with the exact same PMAG/analysis machinery
the SGX path uses — including an ASID-pool alert written as an ordinary
alerting rule (a query compared with a threshold).

Run:  python examples/sev_vm_monitoring.py
"""

from repro.pmag import ScrapeManager, ScrapeTarget, Tsdb
from repro.pmag.alerting import AlertingRule
from repro.pmag.query import QueryEngine
from repro.pman import PmanAnalyzer
from repro.net import HttpNetwork
from repro.sev import QemuSevExtension, SevDriver, SevMetricsExporter
from repro.simkernel import Kernel
from repro.simkernel.clock import seconds

MIB = 1024 * 1024


def main() -> None:
    kernel = Kernel(seed=77, hostname="epyc-host")
    kernel.load_module(SevDriver(asid_count=8))  # a small part, for drama
    qemu = QemuSevExtension(kernel)

    network = HttpNetwork()
    exporter = SevMetricsExporter(kernel, hypervisor=qemu)
    exporter.expose(network)

    tsdb = Tsdb()
    manager = ScrapeManager(kernel.clock, network, tsdb)
    manager.add_target(ScrapeTarget(job="sev", instance=kernel.hostname,
                                    url=exporter.url))
    manager.start()

    engine = QueryEngine(tsdb)
    analyzer = PmanAnalyzer(kernel.clock, engine, tsdb, rules=[
        AlertingRule(
            "SevAsidPoolLow", "sev_asids_free < 3",
            labels={"severity": "warning"},
            annotations={
                "description": "ASID pool nearly exhausted; new guests will fail",
            },
        ),
    ], boxplot_queries=["sev_guests_active"])
    analyzer.start()

    # Launch protected guests over time.
    for index in range(6):
        vm = qemu.launch_vm(f"guest-{index}", memory_bytes=(index + 1) * 128 * MIB)
        print(f"launched {vm.name}: {vm.memory_bytes // MIB} MB encrypted, "
              f"measurement {vm.launch_digest[:12]}…")
        kernel.clock.advance(seconds(30))

    kernel.clock.advance(seconds(90))
    now = kernel.clock.now_ns
    print(f"\nactive guests: {engine.instant('sev_guests_active', now)[0][1]:g}")
    print(f"free ASIDs:    {engine.instant('sev_asids_free', now)[0][1]:g}")
    print("encrypted memory per VM:")
    for labels, value in engine.instant("sum by (vm) (sev_guest_memory_bytes)", now):
        print(f"  {labels.get('vm'):<10} {value / MIB:>8.0f} MB")

    print("\nalerts:")
    for alert in analyzer.firing():
        print(f"  [{alert.labels.get('severity')}] {alert.name()}: "
              f"{alert.value:g} ASIDs free")

    # History: the guest count climbing, straight from the TSDB.
    series = engine.range_query("sev_guests_active", 0, now, seconds(30))
    values = [int(s.value) for s in series[0].samples]
    print(f"\nguest count over time: {values}")

    manager.stop()
    analyzer.stop()


if __name__ == "__main__":
    main()
