"""Command-line entry point.

``python -m repro <command>``:

* ``experiments [ids...]`` — run the paper's experiments (all, or a subset
  by id: table1, table2, fig4..fig11) and print their tables;
* ``list`` — list available experiments;
* ``demo`` — a 60-second single-host monitoring session with a live-ish
  dashboard dump at the end.
"""

from __future__ import annotations

import sys
from typing import List

from repro.experiments.runner import ALL_EXPERIMENTS, run_all


def _demo() -> int:
    from repro.apps import MemtierBenchmark, RedisLikeServer
    from repro.frameworks import SconeRuntime
    from repro.sgx import SgxDriver
    from repro.simkernel import Kernel
    from repro.teemon import deploy

    kernel = Kernel(seed=7)
    kernel.load_module(SgxDriver())
    deployment = deploy(kernel)
    runtime = SconeRuntime()
    runtime.setup(kernel, container_id="redis")
    server = RedisLikeServer()
    bench = MemtierBenchmark(connections=320)
    bench.prepopulate(runtime, server, value_size=64)
    result = bench.run(runtime, server, duration_s=60.0,
                       ebpf_active=True, full_monitoring=True)
    print(result.describe())
    print()
    session = deployment.session
    session.set_process_filter(runtime.process.pid)
    print(session.render("sgx"))
    deployment.shutdown()
    return 0


def main(argv: List[str]) -> int:
    """Dispatch the CLI."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        return 0
    command, *rest = argv
    if command == "list":
        for experiment_id, _ in ALL_EXPERIMENTS:
            print(experiment_id)
        return 0
    if command == "experiments":
        try:
            run_all(rest)
        except ValueError as error:
            print(error)
            return 2
        return 0
    if command == "demo":
        return _demo()
    print(f"unknown command: {command!r}\n")
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
