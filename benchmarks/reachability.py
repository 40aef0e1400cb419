"""Function-level reachability ledger for ``src/repro``.

Runs two sets of programs, each command in its own interpreter, with a
``sys.setprofile``/``threading.setprofile`` ``call`` hook that records
every code object entered under ``src/repro``:

* **drivers** — the e2e workloads (``benchmarks/e2e/run.py --seed 7
  --seconds 3``, untraced and traced), every ``examples/`` script,
  ``python -m repro.experiments.runner``, ``python -m repro demo``,
  ``pytest benchmarks --benchmark-disable --ignore benchmarks/e2e`` and
  every ``benchmarks/perf/bench_*`` at ``--quick`` (each writes its report
  to a temporary path, so no tracked ``BENCH_*.json`` changes);
* **tests** — ``pytest tests``.

The hook is installed by a ``sitecustomize`` module in a bootstrap
directory put first on ``PYTHONPATH``, so subprocesses the commands
start are counted too; under pytest it is re-installed before every
test, because pytest-benchmark can swap it.

A function is keyed by ``(file, first line)``, its first decorator's
line when it has one, which is the code object's ``co_firstlineno``.
Its *own lines* are its span, decorators included, minus the spans of
the defs nested in it.  It is *driven* when a driver entered it,
*tests-only* when only the tests did, and *unreached* otherwise.

Every tests-only or unreached function either has a verdict in
:data:`VERDICTS` (why it stays although no driver enters it) or is
*undecided*: the next deletion round's work list.  The ledger prints the
three totals; the tests-only and unreached functions split into
reserved, kept and undecided, and by kind; then one line per file that
holds tests-only functions (their count and own lines, most lines
first), each followed by those functions (first line, qualified name,
own lines and verdict, in file order); then the unreached functions.
Each command's exit status and wall time go to stderr; a failing
command is reported, not fatal (a perf bench's own timing gate can trip
under the hook).

Run from the repository root (takes several minutes; stdlib only)::

    python benchmarks/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

Key = Tuple[str, int]

#: Prefix of the kinds that hold code a named ROADMAP item will drive
#: or delete.
RESERVED = "reserved: "

#: Why a function no driver enters stays in ``src/repro``: kind -> dotted
#: names.  A name covers the def it names and every def under it, so a
#: module or class name covers all of their functions.
#: ``tests/test_reachability_verdicts.py`` checks that each name still
#: covers a def.
VERDICTS: Dict[str, Tuple[str, ...]] = {
    # The test suite's means to crash, partition and corrupt a
    # deployment; no workload asks for faults.
    "chaos infrastructure": (
        "repro.faults",
        "repro.simkernel.disk.SimDisk.add_write_fault",
        "repro.simkernel.disk.SimDisk.add_crash_fault",
        "repro.simkernel.disk.SimDisk._mutate",
        "repro.simkernel.disk.LostTail.discarded",
        "repro.simkernel.disk.DiskCrashReport.files_affected",
        "repro.simkernel.disk.DiskCrashReport.bytes_discarded",
        "repro.simkernel.rng.DeterministicRng.uniform",
        "repro.simkernel.rng.DeterministicRng.exponential",
        "repro.simkernel.rng.DeterministicRng.choice",
        "repro.net.network.Link.transfer_time_s",
        "repro.pmag.wal._Replay.journal",
    ),
    # Mechanisms whose trigger no driver's workload produces (teardown,
    # EPC pressure, a failing peer or rule, an operator's silence);
    # deleting one changes what the monitor does or reports when the
    # trigger comes.
    "zero by workload": (
        # Enclave teardown: sgx_enclaves_removed_total.
        "repro.simkernel.kernel.Kernel.unload_module",
        "repro.sgx.driver.SgxDriver.on_unload",
        "repro.sgx.driver.SgxDriver.remove_enclave",
        "repro.sgx.enclave.Enclave.remove",
        "repro.sgx.epc.EpcRegion.unregister_enclave",
        "repro.frameworks.base.SgxFramework.teardown",
        # SEV guest teardown: sev_decommissions_total.
        "repro.sev.driver.SevDriver.on_unload",
        "repro.sev.driver.SevDriver.decommission",
        "repro.sev.hypervisor.QemuSevExtension.shutdown_vm",
        # EPC pressure: sgx_aexs_total, sgx_epc_pages_evicted_total,
        # sgx_epc_pages_reclaimed_total.
        "repro.sgx.swapd.Ksgxswapd.reclaim",
        "repro.sgx.epc.EpcRegion.largest_resident_enclave",
        "repro.simkernel.rng.DeterministicRng.binomial",
        # An ECALL-based runtime: sgx-perf's ecall count.
        "repro.sgx.enclave.Enclave.ecall",
        # Failures: span events and status, the rule fault barrier,
        # notification retries and repeats.
        "repro.trace.tracer.SpanEvent.line",
        "repro.trace.tracer.Span.add_event",
        "repro.trace.tracer.Span.set_status",
        "repro.trace.tracer._UnsampledSpan.add_event",
        "repro.trace.tracer._UnsampledSpan.set_status",
        "repro.trace.sampling.TailRules.matches_span",
        "repro.pmag.rules.RuleGroup._fault",
        "repro.pmag.alerting.router.NotificationRouter._retry",
        "repro.pmag.alerting.router.NotificationRouter._repeat_due",
        # Silences and inhibition: alerting notifications.
        "repro.pmag.alerting.silences.Silence.covers",
        "repro.pmag.alerting.silences.Inhibitor._matches",
        # A store changed behind an uplink feed's back.
        "repro.pmag.tsdb.ArrivalFeed.doubt",
        # Scheduling onto a tainted node.
        "repro.orchestration.kubernetes.PodSpec.tolerates",
    ),
    # Decoders and evaluators of legal input from outside (query text,
    # trace headers, operator config, user eBPF programs, an
    # out-of-order sample run) that no driver happens to send.
    "outside input": (
        "repro.trace.context._is_hex",
        "repro.trace.context.parse_traceparent",
        "repro.pmag.query.ops.binary",
        "repro.pmag.query.ops.comparison",
        "repro.pmag.query.ops.function",
        "repro.pmag.query.ops.check_function",
        "repro.pmag.query.ops.cell_function",
        "repro.pmag.query.functions._counter_step",
        "repro.pmag.query.functions._prepare_irate",
        "repro.pmag.query.functions.window_reducer.prepare",
        "repro.pmag.query.functions._prepare_count_over_time",
        "repro.pmag.model.Matcher.ne",
        "repro.pmag.model.Matcher.not_regex",
        "repro.pmag.query.parser._Parser._offset_duration",
        "repro.pmag.chunks.ChunkedSeries._append_each",
        "repro.pmag.alerting.silences.Silence.__post_init__",
        "repro.pmag.alerting.silences.InhibitRule.__post_init__",
        "repro.ebpf.program.ProgramBuilder.add_reg",
        "repro.ebpf.program.ProgramBuilder.sub_imm",
        "repro.ebpf.program.ProgramBuilder.mul_imm",
        "repro.ebpf.program.ProgramBuilder.div_imm",
        "repro.ebpf.program.ProgramBuilder.and_imm",
        "repro.ebpf.program.ProgramBuilder.jmp",
        "repro.ebpf.program.program_from",
    ),
    # Small accessors and controls tests use to read or drive a
    # component; deleting one moves the same code into the tests.
    "probe": (
        "repro.simkernel.syscalls.SyscallTable.total_dispatched",
        "repro.simkernel.syscalls.SyscallTable.number_of",
        "repro.simkernel.syscalls.SyscallTable.name_of",
        "repro.simkernel.syscalls.SyscallTable.cost_ns",
        "repro.simkernel.syscalls.SyscallTable.count_of",
        "repro.simkernel.syscalls.SyscallTable.counts_snapshot",
        "repro.simkernel.procfs.VirtualFs.exists",
        "repro.simkernel.rng.DeterministicRng.path",
        "repro.simkernel.memory.PhysicalMemory.free_frames",
        "repro.simkernel.memory.AddressSpace.rss_pages",
        "repro.simkernel.memory.VirtualMemory.user_faults",
        "repro.simkernel.memory.VirtualMemory.kernel_faults",
        "repro.simkernel.memory.VirtualMemory.total_faults",
        "repro.simkernel.hooks.HookContext.get",
        "repro.simkernel.hooks.HookRegistry.kind_of",
        "repro.simkernel.hooks.HookRegistry.names",
        "repro.simkernel.hooks.HookRegistry.observer_count",
        "repro.simkernel.kernel.Kernel.process",
        "repro.simkernel.kernel.Kernel.find_processes",
        "repro.simkernel.clock.millis",
        "repro.simkernel.clock.micros",
        "repro.simkernel.clock.VirtualClock.pending_count",
        "repro.simkernel.pagecache.PageCacheStats.hit_ratio",
        "repro.simkernel.cpu.LlcStats.miss_ratio",
        "repro.sgx.epc.EpcRegion.enclave_ids",
        "repro.sev.driver.SevDriver.free_asids",
        "repro.sev.hypervisor.ProtectedVm.pid",
        "repro.sev.hypervisor.QemuSevExtension.vm",
        "repro.sev.hypervisor.QemuSevExtension.total_protected_bytes",
        "repro.ebpf.maps.HashMap.update",
        "repro.ebpf.maps.HashMap.delete",
        "repro.ebpf.maps.HashMap.clear",
        "repro.openmetrics.types.Exemplar.labels_dict",
        "repro.openmetrics.types.Counter.value",
        "repro.openmetrics.types._GaugeChild.inc",
        "repro.openmetrics.types._GaugeChild.dec",
        "repro.openmetrics.types.Gauge.value",
        "repro.openmetrics.types.Histogram.observe",
        "repro.openmetrics.registry.CollectorRegistry.unregister",
        "repro.openmetrics.registry.CollectorRegistry.get",
        "repro.openmetrics.parser.ParsedSample.labels_dict",
        "repro.net.http.HttpRequest.url",
        "repro.net.http.HttpNetwork.endpoints",
        "repro.orchestration.container.DockerRuntime.stop",
        "repro.orchestration.container.DockerRuntime.remove",
        "repro.orchestration.container.DockerRuntime.get",
        "repro.pmag.model.Labels.has",
        "repro.pmag.model.Labels.with_label",
        "repro.pmag.chunks.Chunk.full",
        "repro.pmag.chunks.Chunk.samples",
        "repro.pmag.chunks.ChunkedSeries.chunk_count",
        "repro.pmag.chunks.ChunkedSeries.window",
        "repro.pmag.wal.WalWriter.current_segment",
        "repro.pmag.wal.WalWriter.segment_seq",
        "repro.pmag.wal.RecoveryReport.samples_lost_by_shard",
        "repro.pmag.remote_write.RemoteWriteReceiver.last_sequence",
        "repro.pmag.remote_write.RemoteWriteReceiver.last_epoch",
        "repro.pmag.scrape.ScrapeManager.exemplar_for",
        "repro.pmag.alerting.state.AlertJournal.journal_text",
        "repro.teemon.ha.HAMonitorPair.stop",
        "repro.experiments.common.ExperimentResult.column",
    ),
    # Names benchmarks/e2e/tracing.py wraps or imports; they go with
    # the layer-accounting item.
    "pinned by the e2e tracer": (
        "repro.pmag.tsdb.Tsdb.compact",
        "repro.pmag.tsdb.Tsdb.select_rollups",
        "repro.pmag.remote_write.decode_frame",
        "repro.pmag.wal.WalWriter.append",
    ),
    # Base-class methods every subclass overrides.
    "abstract hook": (
        "repro.simkernel.kernel.KernelModule.on_load",
        "repro.simkernel.kernel.KernelModule.on_unload",
        "repro.frameworks.base.SgxFramework._dispatch_syscalls",
        "repro.openmetrics.types.MetricFamily._new_child",
        "repro.faults.scenarios.WorkloadScenario._fire",
    ),
    RESERVED + "One health surface": (
        "repro.teemon.session.MonitoringSession.query_range",
        "repro.teemon.session.MonitoringSession.target_health",
        "repro.teemon.session.MonitoringSession.down_targets",
        "repro.teemon.session.MonitoringSession.stale_targets",
        "repro.teemon.session.MonitoringSession.recovery_stats",
        "repro.teemon.session.MonitoringSession.storage_stats",
        "repro.teemon.session.MonitoringSession.remote_write_stats",
        "repro.teemon.session.MonitoringSession.federation_lag",
        "repro.teemon.session.MonitoringSession.traces",
        "repro.teemon.session.MonitoringSession.trace",
        "repro.teemon.session.MonitoringSession.render_trace",
        "repro.teemon.session.MonitoringSession.render_trace_flamegraph",
        "repro.teemon.session.MonitoringSession._detector",
        "repro.teemon.session.MonitoringSession.anomalies",
        "repro.teemon.session.MonitoringSession.anomaly_journal",
        "repro.teemon.session.MonitoringSession.anomaly_stats",
        "repro.teemon.session.MonitoringSession.render_anomaly_timeline",
        "repro.teemon.session.MonitoringSession.alerts",
        "repro.teemon.session.MonitoringSession.rule_stats",
        "repro.teemon.session.MonitoringSession.alert_log",
        "repro.pmag.scrape.ScrapeManager.down_targets",
        "repro.pmag.scrape.ScrapeManager.stale_targets",
        "repro.pmv.trace_view",
        "repro.pmv.anomaly_view",
        "repro.trace.store.TraceStore.flush_pending",
        "repro.trace.store.TraceStore.dropped_reason",
        "repro.trace.store.TraceStore.get",
        "repro.trace.store.TraceStore.trace_ids",
        "repro.trace.store.TraceStore.latest",
        "repro.trace.store.TraceStore.__len__",
        "repro.trace.store.TraceStore.span_count",
        "repro.trace.store.TraceStore.journal_text",
        "repro.trace.tracer.Span.line",
    ),
    RESERVED + "A driver past the retention horizon": (
        "repro.orchestration.fleet.FleetExporter.shutdown",
        "repro.orchestration.fleet.NodeFleet.remove_node",
        "repro.orchestration.fleet.NodeFleet.reboot_node",
        "repro.orchestration.fleet.NodeFleet.node_names",
        "repro.orchestration.fleet.NodeFleet.stats",
        "repro.orchestration.fleet.FleetChurner",
        "repro.orchestration.kubernetes.Cluster.fail_node",
        "repro.orchestration.kubernetes.Cluster.pods_on",
        "repro.pmag.tsdb.Tsdb._unindex",
        "repro.pmag.tsdb.Tsdb.delete_series",
        "repro.pmag.chunks.ChunkedSeries.drop_before",
    ),
    RESERVED + "The anomaly detector and PMAN's box plots become rules": (
        "repro.pmag.query.ops.histogram_quantile",
        "repro.trace.detect.AnomalyEvent.line",
        "repro.trace.detect._parse_le",
        "repro.trace.detect.AnomalyDetector.stats",
    ),
}

_KIND_OF = {name: kind for kind, names in VERDICTS.items() for name in names}

_SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_OUT = {out!r}
_SRC = {src!r}
_seen = {{}}


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _seen[id(code)] = code


def install():
    sys.setprofile(_hook)
    threading.setprofile(_hook)


def _dump():
    sys.setprofile(None)
    keys = sorted({{
        (code.co_filename, code.co_firstlineno) for code in _seen.values()
        if code.co_filename.startswith(_SRC)
    }})
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "w") as out:
        out.writelines("%s\\t%d\\n" % key for key in keys)


atexit.register(_dump)
install()
'''

_PLUGIN = '''\
import pytest
import sitecustomize


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sitecustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sitecustomize.install()
'''


def functions() -> Dict[Key, Tuple[str, int]]:
    """Every def under ``src/repro``: key -> (qualified name, own lines)."""
    found: Dict[Key, Tuple[str, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, str(path), "", found)
    return found


def dotted(path: str, qualname: str) -> str:
    """``src/repro/pmag/tsdb.py`` + ``Tsdb.compact`` ->
    ``repro.pmag.tsdb.Tsdb.compact``."""
    module = Path(path).resolve().relative_to(SRC.parent).with_suffix("")
    parts = list(module.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts + [qualname])


def verdict(name: str) -> Optional[str]:
    """The kind whose table entry covers the dotted ``name``, if any."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        kind = _KIND_OF.get(".".join(parts[:end]))
        if kind is not None:
            return kind
    return None


def _span(node: ast.AST) -> Tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return first, node.end_lineno


def _collect(node: ast.AST, path: str, prefix: str,
             found: Dict[Key, Tuple[str, int]]) -> int:
    """Record the defs under ``node``; returns the lines nested defs span."""
    nested = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first, last = _span(child)
            inner = _collect(child, path, f"{prefix}{child.name}.", found)
            found[(path, first)] = (prefix + child.name, last - first + 1 - inner)
            nested += last - first + 1
        elif isinstance(child, ast.ClassDef):
            nested += _collect(child, path, f"{prefix}{child.name}.", found)
        else:
            nested += _collect(child, path, prefix, found)
    return nested


def driver_commands(reports: Path) -> List[List[str]]:
    """The production drivers, one command each."""
    python = sys.executable
    workloads = [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    ]
    commands = [
        [python, "benchmarks/e2e/run.py", "--workload", name, "--seed", "7",
         "--seconds", "3", "--trace", trace]
        for name in workloads for trace in ("0", "1")
    ]
    commands += [[python, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    commands += [
        [python, "-m", "repro.experiments.runner"],
        [python, "-m", "repro", "demo"],
        [python, "-m", "pytest", "-q", "-p", "reach_plugin", "-p", "no:cacheprovider",
         "benchmarks", "--benchmark-disable", "--ignore", "benchmarks/e2e"],
    ]
    commands += [
        [python, "-m", f"benchmarks.perf.{p.stem}", "--quick",
         "--output", str(reports / f"{p.stem}.json")]
        for p in sorted((ROOT / "benchmarks" / "perf").glob("bench_*.py"))
    ]
    return commands


def suite_commands() -> List[List[str]]:
    """The test set."""
    return [[sys.executable, "-m", "pytest", "-q", "-p", "reach_plugin",
             "-p", "no:cacheprovider", "tests"]]


def entered(label: str, commands: List[List[str]], scratch: Path) -> Set[Key]:
    """Run ``commands`` under the hook; the functions any of them entered."""
    boot = scratch / f"{label}-boot"
    out = scratch / f"{label}-out"
    boot.mkdir()
    out.mkdir()
    (boot / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(out=str(out), src=str(SRC) + os.sep))
    (boot / "reach_plugin.py").write_text(_PLUGIN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(boot), str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    for command in commands:
        started = time.monotonic()
        done = subprocess.run(command, cwd=str(ROOT), env=env, check=False,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        shown = " ".join(
            os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a
            for a in command[1:])
        print(f"  [{label}] exit {done.returncode}  "
              f"{time.monotonic() - started:6.1f}s  {shown}", file=sys.stderr)
    keys: Set[Key] = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, lineno = line.rsplit("\t", 1)
            keys.add((path, int(lineno)))
    return keys


def main() -> int:
    defs = functions()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        scratch = Path(tmp)
        reports = scratch / "reports"
        reports.mkdir()
        driven = entered("drivers", driver_commands(reports), scratch)
        tested = entered("tests", suite_commands(), scratch)
    classes: Dict[str, List[Key]] = {"driven": [], "tests-only": [], "unreached": []}
    for key in defs:
        if key in driven:
            classes["driven"].append(key)
        elif key in tested:
            classes["tests-only"].append(key)
        else:
            classes["unreached"].append(key)
    total_lines = sum(lines for _, lines in defs.values())
    print(f"src/repro: {len(defs):,} functions, {total_lines:,} own lines")
    for name, keys in classes.items():
        lines = sum(defs[key][1] for key in keys)
        print(f"  {name:<11} {len(keys):>6,} functions {lines:>8,} own lines")
    kinds = {key: verdict(dotted(key[0], defs[key][0])) for key in defs}
    for name in ("tests-only", "unreached"):
        _print_verdicts(name, classes[name], defs, kinds)
    per_file: Dict[str, List[Key]] = {}
    for key in sorted(classes["tests-only"]):
        per_file.setdefault(os.path.relpath(key[0], ROOT), []).append(key)
    totals = {path: sum(defs[key][1] for key in keys) for path, keys in per_file.items()}
    print("\ntests-only by file:")
    for path in sorted(per_file, key=lambda path: (-totals[path], path)):
        keys = per_file[path]
        print(f"  {path:<48} {len(keys):>4} functions {totals[path]:>6} own lines")
        for key in keys:
            qualname, own = defs[key]
            print(f"      {key[1]:>5}  {qualname}  ({own})  {_tag(kinds[key])}")
    print("\nunreached:")
    for key in sorted(classes["unreached"]):
        path, lineno = key
        qualname, lines = defs[key]
        print(f"  {os.path.relpath(path, ROOT)}:{lineno}  {qualname}  ({lines})"
              f"  {_tag(kinds[key])}")
    return 0


def _tag(kind: Optional[str]) -> str:
    return f"[{kind}]" if kind else "UNDECIDED"


def _print_verdicts(label: str, keys: Iterable[Key],
                    defs: Dict[Key, Tuple[str, int]],
                    kinds: Dict[Key, Optional[str]]) -> None:
    """``label``'s functions split into reserved, kept and undecided."""
    groups: Dict[str, List[Key]] = {"reserved": [], "kept": [], "undecided": []}
    by_kind: Dict[str, List[Key]] = {}
    for key in keys:
        kind = kinds[key]
        if kind is None:
            groups["undecided"].append(key)
            continue
        groups["reserved" if kind.startswith(RESERVED) else "kept"].append(key)
        by_kind.setdefault(kind, []).append(key)
    print(f"\n{label} by verdict:")
    for group, members in groups.items():
        lines = sum(defs[key][1] for key in members)
        print(f"  {group:<11} {len(members):>6,} functions {lines:>8,} own lines")
    outside = sum(defs[key][1] for key in groups["kept"] + groups["undecided"])
    print(f"  outside the reserved clusters: {outside:,} own lines")
    width = max(map(len, by_kind), default=0)
    for kind in sorted(by_kind):
        members = by_kind[kind]
        lines = sum(defs[key][1] for key in members)
        print(f"    {kind:<{width}} {len(members):>4} functions {lines:>6} own lines")


if __name__ == "__main__":
    sys.exit(main())
