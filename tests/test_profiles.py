"""The TEEMON_TEST_PROFILE switch lives in ``tests/conftest.py``.

Production config knows nothing of it: ``repro.teemon.config`` carries
the paper's defaults as plain literals, and conftest moves five of them
per CI leg.  These tests pin the table the legs run under and the fact
that the variable means nothing outside the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.teemon.config import TeemonConfig
from tests.conftest import (
    CONFIG_FIELDS,
    PAPER_DEFAULTS,
    TEST_PROFILES,
    profile_defaults,
)

#: (shards, WAL, frame samples, tracing, sampling).
_RESOLVED = {
    "": (1, False, 500, False, None),
    "sharded": (4, True, 500, False, None),
    "federated": (4, True, 50, False, None),
    "traced": (1, False, 500, True, 0.25),
}


def _five(config):
    return (
        config.storage_shards, config.enable_wal,
        config.remote_write_frame_samples,
        config.enable_tracing, config.trace_sampling_probability,
    )


@pytest.mark.parametrize("profile", sorted(TEST_PROFILES))
def test_profile_resolves_to_its_row_of_the_table(profile, monkeypatch):
    monkeypatch.setattr(
        TeemonConfig.__init__, "__defaults__", profile_defaults(profile)
    )
    assert _five(TeemonConfig()) == _RESOLVED[profile]
    # Explicit arguments win, and nothing but the profile's rows moved.
    explicit = TeemonConfig(
        storage_shards=2, enable_wal=False,
        remote_write_frame_samples=7, enable_tracing=False,
        trace_sampling_probability=1.0,
    )
    assert _five(explicit) == (2, False, 7, False, 1.0)
    moved = {
        name for name, new, paper in zip(
            CONFIG_FIELDS, profile_defaults(profile), PAPER_DEFAULTS
        ) if new is not paper
    }
    assert moved == set(TEST_PROFILES[profile])


def test_this_run_uses_the_profile_the_environment_names():
    profile = os.environ.get("TEEMON_TEST_PROFILE", "")
    assert _five(TeemonConfig()) == _RESOLVED[profile]


def test_unknown_profile_is_an_error_not_the_paper_defaults():
    with pytest.raises(KeyError):
        profile_defaults("shraded")


@pytest.mark.parametrize("profile", sorted(set(TEST_PROFILES) - {""}))
def test_production_config_ignores_the_variable(profile):
    """A fresh interpreter, no conftest: the paper defaults whatever the
    environment says."""
    src = Path(__file__).resolve().parent.parent / "src"
    program = (
        "from repro.teemon.config import TeemonConfig; c = TeemonConfig(); "
        "print((c.storage_shards, c.enable_wal, "
        "c.remote_write_frame_samples, c.enable_tracing, "
        "c.trace_sampling_probability))"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(src),
             "TEEMON_TEST_PROFILE": profile},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == repr(_RESOLVED[""])
