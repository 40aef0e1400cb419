"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1 ``testpaths``.  Runs the ``--quick`` sizes once and checks
the benchmark's own contract: declared metrics are exactly the emitted
ones, names and counts stay inside the ``BENCHMARK.json`` limits, the
trace accounts for the window, and ``compare`` reads its own output.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import spec
from benchmarks.e2e.compare import compare_files, verdict

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "quick.json"
    began = time.perf_counter()
    done = subprocess.run(
        RUN + ["--quick", "--repeats", "2", "--output", str(path)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), elapsed, done.stdout, path


def test_quick_suite_is_quick(quick_report):
    _report, elapsed, _stdout, _path = quick_report
    assert elapsed < 20.0


def test_every_workload_emits_exactly_its_declared_metrics(quick_report):
    report, _elapsed, stdout, _path = quick_report
    end_to_end = [name for name, *_ in spec.END_TO_END]
    per_layer = [name for name, *_ in spec.per_layer()]
    assert list(report["workloads"]) == list(spec.WORKLOADS)
    for workload, entry in report["workloads"].items():
        assert list(entry["end_to_end"]) == end_to_end, workload
        assert list(entry["per_layer"]) == per_layer, workload
        assert all(entry["checks"].values()), workload
        assert entry["failed"] == 0 and entry["digest"], workload
        assert all(v > 0 for cell in entry["end_to_end"].values()
                   for v in cell["values"]), workload
        for name in end_to_end + per_layer:
            assert name in stdout


def test_names_and_counts_fit_the_contract():
    names = ([n for n, *_ in spec.END_TO_END]
             + [n for n, *_ in spec.per_layer()] + list(spec.WORKLOADS))
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert len(spec.END_TO_END) <= 16
    assert len(spec.per_layer()) <= 128
    assert all(len(why) <= 200 and "\n" not in why
               for why in spec.WORKLOADS.values())
    assert all(0 < bound <= 0.25 for *_, bound in spec.END_TO_END)
    assert ("setup_s", "s", "lower") in [m[:3] for m in spec.END_TO_END]


def test_benchmark_json_lists_what_the_runner_prints():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == spec.benchmark_json()
    assert 1 <= declared["run_seconds"] <= 60


def test_trace_accounts_for_the_window(quick_report):
    report, *_ = quick_report
    for workload, entry in report["workloads"].items():
        with open(ROOT / ".e2e_out" / f"trace.{workload}.json",
                  encoding="utf-8") as handle:
            trace = json.load(handle)
        self_s = sum(a["self_s"] for a in trace["aggregates"].values())
        assert self_s == pytest.approx(trace["window_raw_s"], rel=0.01)
        assert trace["spans"][-1][1] == "driver"
        assert entry["per_layer"]["unattributed_share"]["value"] <= 0.10
        assert entry["per_layer"]["trace_overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_single_measurement_prints_the_contract_line(trace):
    done = subprocess.run(
        RUN + ["--workload", "crash_loop", "--seed", "11", "--seconds", "0",
               "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = (spec.per_layer() if trace
                else [m[:3] for m in spec.END_TO_END])
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        name: unit for name, unit, _better in declared
    }


def test_compare_accepts_itself_and_rejects_other_work(quick_report, tmp_path,
                                                        capsys):
    report, _elapsed, _stdout, path = quick_report
    assert compare_files(str(path), str(path)) == 0
    report["workloads"]["crash_loop"]["digest"] = "different"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(report), encoding="utf-8")
    assert compare_files(str(path), str(other)) == 1
    assert "digest mismatch" in capsys.readouterr().out


def test_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert verdict(steady, [104.0, 105.0, 103.0], "lower", 0.10) == "ok"
    assert verdict(steady, [115.0, 116.0, 114.0], "lower", 0.10) == "worse"
    assert verdict(steady, [85.0, 86.0, 84.0], "higher", 0.10) == "worse"
    noisy = [100.0, 140.0, 70.0]
    assert verdict(noisy, [101.0, 141.0, 71.0], "lower", 0.10) == "unresolved"
    assert verdict(noisy, [50.0, 60.0, 55.0], "lower", 0.10) == "ok"
