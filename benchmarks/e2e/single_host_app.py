"""``single_host_app``: the paper's section-6 host (``examples/quickstart.py``).

One SGX host running all four exporters plus ``teemon_self``, a
Redis-like server under SCONE driven by memtier (320 connections,
pipeline 8, 720 k keys x 64 B = 105 MB, larger than the EPC), eBPF on,
full monitoring, default rules and PMAN.  One step is
``bench.run(duration_s=5)`` — the load generator advances the clock, so
TEEMon monitors the application while it runs — and every 12th step
renders all three dashboards.
"""

from __future__ import annotations

from typing import Dict

from repro.apps import MemtierBenchmark, RedisLikeServer
from repro.frameworks import SconeRuntime
from repro.sgx import SgxDriver
from repro.simkernel import Kernel
from repro.teemon import TeemonConfig, deploy

from benchmarks.e2e import layers
from benchmarks.e2e.harness import Workload
from benchmarks.e2e.sink import sink_digest

STEP_VIRTUAL_S = 5.0
WARMUP_STEPS = 6  # 30 virtual s
RENDER_EVERY = 12
DASHBOARDS = ("sgx", "docker", "infra")
CONNECTIONS = 320
PIPELINE = 8
#: Monitored / unmonitored Redis throughput the paper reports (Fig. 5).
PAPER_BAND = (0.85, 0.97)

DIGEST_QUERIES = (
    "sum by (name) (rate(ebpf_syscalls_total[1m]))",
    "rate(sgx_epc_pages_evicted_total[1m])",
    "sum(up)",
    "count(job:syscalls:rate1m)",
)


class SingleHostApp(Workload):
    STEPS = (1440, 24)

    def __init__(self, seed: int, quick: bool) -> None:
        self.kernel = Kernel(seed=seed, hostname="sgx-host")
        self.kernel.load_module(SgxDriver())
        self.deployment = deploy(self.kernel, TeemonConfig(
            scrape_interval_s=5.0, storage_shards=1, enable_wal=False,
            storage_executor_workers=0,
        ))
        self.runtime = SconeRuntime()
        self.runtime.setup(self.kernel, container_id="redis")
        self.server = RedisLikeServer()
        self.bench = MemtierBenchmark(connections=CONNECTIONS,
                                      pipeline=PIPELINE)
        self.bench.prepopulate(self.runtime, self.server,
                               keys=720_000, value_size=64)
        self.deployment.session.set_process_filter(self.runtime.process.pid)
        self.virtual_s = 0.0
        self.throughput_sum = 0.0
        self.runs = 0
        self.renders = 0
        for _ in range(WARMUP_STEPS):
            self._run_app()

    def _run_app(self) -> None:
        result = self.bench.run(
            self.runtime, self.server, duration_s=STEP_VIRTUAL_S,
            ebpf_active=True, full_monitoring=True,
        )
        self.throughput_sum += result.throughput_rps
        self.runs += 1
        self.virtual_s += STEP_VIRTUAL_S

    def step(self, index: int) -> None:
        self._run_app()
        if index % RENDER_EVERY == RENDER_EVERY - 1:
            for name in DASHBOARDS:
                self.deployment.session.render(name)
            self.renders += len(DASHBOARDS)

    def work(self) -> float:
        return self.virtual_s

    def counters(self) -> Dict[str, float]:
        return layers.deployment_counters([self.deployment])

    def finish(self) -> dict:
        deployment = self.deployment
        unmonitored = self.runtime.achievable_rate(
            connections=CONNECTIONS, pipeline=PIPELINE,
            db_bytes=self.server.db_bytes,
            network_cap_rps=self.bench.network_cap_rps(self.server),
            ebpf_active=False, full_monitoring=False,
        )
        normalized = (self.throughput_sum / self.runs) / unmonitored
        now_ns = self.kernel.clock.now_ns
        panels = [
            data
            for board in deployment.dashboards.values()
            for data in board.snapshot(deployment.engine, now_ns)
        ]
        empty = [p.title for p in panels if not (p.series or p.rows)]
        checks = {
            "app_tput_in_paper_band":
                PAPER_BAND[0] <= normalized <= PAPER_BAND[1],
            "every_panel_non_empty": not empty,
        }
        scrapes = layers.scrape_attempts(deployment)
        failures = layers.scrape_failures(deployment)
        return {
            "attempted": scrapes + self.renders + len(panels),
            "failed": failures + len(empty),
            "checks": checks,
            "digest": sink_digest(deployment.tsdb, deployment.engine,
                                  now_ns, DIGEST_QUERIES),
            "level": {"app_tput_normalized": normalized},
        }
