"""Smoke tests: every example script runs to completion.

Examples are the quickstart documentation; a broken one is a broken
README.  Each script under ``examples/`` runs in its own interpreter with
``PYTHONPATH=src`` and must exit 0 within a timeout.  The child imports
``conftest`` first, so the suite's deployment profile
(``TEEMON_TEST_PROFILE``) moves the examples' ``TeemonConfig`` defaults
exactly as it does in-process tests.  A few key phrases per script are
asserted so a silently-empty run also fails; a new example adds its
phrases here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO = TESTS_DIR.parent
EXAMPLES_DIR = REPO / "examples"
#: Wall-clock bound per script; each takes a few seconds.
TIMEOUT_S = 120

EXPECTED = {
    "quickstart.py": ["populated 720k keys", "active alerts", "TEEMon / SGX"],
    "sgx_framework_comparison.py": ["graphene-sgx", "evict/100"],
    "code_evolution_ci.py": ["verdict:", "throughput improved"],
    "ebpf_custom_metrics.py": ["verifier accepted", "bursts="],
    "kubernetes_cluster_monitoring.py":
        ["scrape targets discovered", "after worker-4 joined"],
    "sev_vm_monitoring.py": ["active guests", "SevAsidPoolLow"],
    "slo_burn_rate_alerts.py":
        ["firing during burn", "all resolved", "legend"],
    "federated_fleet.py":
        ["AnomalyDetected", "TargetDown,instance=r1-node-1",
         "teemon-fed/region-0 crash", "failover", "partition-heal",
         "federation lag timeline", "firing now:"],
}

SCRIPTS = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))

#: Child-process entry: ``argv`` is ``[tests dir, script]``.  Importing
#: ``conftest`` applies the deployment profile; the script then runs as
#: ``__main__``, as ``python script`` would run it.
BOOTSTRAP = (
    "import runpy, sys\n"
    "tests_dir, script = sys.argv[1:]\n"
    "sys.argv = [script]\n"
    "sys.path.insert(0, tests_dir)\n"
    "import conftest\n"
    "runpy.run_path(script, run_name='__main__')\n"
)


def _run(script: Path, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", BOOTSTRAP, str(TESTS_DIR), str(script)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script):
    result = _run(EXAMPLES_DIR / script)
    assert result.returncode == 0, f"{script}:\n{result.stderr}"
    for phrase in EXPECTED[script]:
        assert phrase in result.stdout, f"{script}: missing {phrase!r}"


def test_examples_run_under_the_test_profile(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.teemon import TeemonConfig\n"
        "config = TeemonConfig()\n"
        "print(config.storage_shards, config.enable_wal)\n"
    )
    result = _run(probe, TEEMON_TEST_PROFILE="sharded")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["4", "True"]


def test_every_example_has_key_phrases():
    assert sorted(EXPECTED) == SCRIPTS
