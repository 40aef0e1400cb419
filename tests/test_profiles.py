"""The TEEMON_TEST_PROFILE switch lives in ``tests/conftest.py``.

Production config knows nothing of it: ``repro.teemon.config`` carries
the paper's defaults as plain literals, and conftest moves three of
them per CI leg.  These tests pin the table the legs run under and the fact
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

#: (shards, WAL, frame samples).
_RESOLVED = {
    "": (1, False, 500),
    "sharded": (4, True, 500),
    "federated": (4, True, 50),
}


def _three(config):
    return (
        config.storage_shards, config.enable_wal,
        config.remote_write_frame_samples,
    )


@pytest.mark.parametrize("profile", sorted(TEST_PROFILES))
def test_profile_resolves_to_its_row_of_the_table(profile, monkeypatch):
    monkeypatch.setattr(
        TeemonConfig.__init__, "__defaults__", profile_defaults(profile)
    )
    assert _three(TeemonConfig()) == _RESOLVED[profile]
    # Explicit arguments win, and nothing but the profile's rows moved.
    explicit = TeemonConfig(
        storage_shards=2, enable_wal=False, remote_write_frame_samples=7,
    )
    assert _three(explicit) == (2, False, 7)
    moved = {
        name for name, new, paper in zip(
            CONFIG_FIELDS, profile_defaults(profile), PAPER_DEFAULTS
        ) if new is not paper
    }
    assert moved == set(TEST_PROFILES[profile])


def test_this_run_uses_the_profile_the_environment_names():
    profile = os.environ.get("TEEMON_TEST_PROFILE", "")
    assert _three(TeemonConfig()) == _RESOLVED[profile]


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
        "c.remote_write_frame_samples))"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(src),
             "TEEMON_TEST_PROFILE": profile},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.strip() == repr(_RESOLVED[""])
