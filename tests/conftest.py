"""Shared fixtures, hypothesis profiles and deployment profiles."""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import HealthCheck, settings

from repro.simkernel.kernel import Kernel
from repro.sgx.driver import SgxDriver
from repro.teemon.config import TeemonConfig

# Property-test profiles.  "dev" keeps the local edit-test loop fast;
# "ci" runs more examples with derandomized (fixed-seed) search so CI
# failures reproduce exactly.  Select with HYPOTHESIS_PROFILE=ci.
settings.register_profile("dev", max_examples=100)
settings.register_profile(
    "ci",
    max_examples=400,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# "soak" is for the state machines the kill-loop CI step reruns: many
# more, much longer programs than a tier-1 run can afford.
settings.register_profile(
    "soak",
    max_examples=1500,
    stateful_step_count=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

# Deployment profiles.  CI runs the whole suite once per profile by
# setting TEEMON_TEST_PROFILE; each moves a few ``TeemonConfig``
# *defaults* so every test that deploys without saying otherwise
# exercises that mode.  Explicit constructor arguments always win.
_SHARDED = {"storage_shards": 4, "enable_wal": True}
TEST_PROFILES = {
    "": {},
    # 4-shard engine with the WAL on (durability rides the sharded path).
    "sharded": _SHARDED,
    # ... plus small remote-write frames: every uplink ships many frames
    # per flush and the shard-routed receiver path gets full coverage.
    "federated": {**_SHARDED, "remote_write_frame_samples": 50},
    # Sampled tracing always on, at a real (sub-1.0) head-sampling
    # probability so both keep and drop paths run; trace tests that need
    # every trace pin the probability explicitly.
    "traced": {"enable_tracing": True, "trace_sampling_probability": 0.25},
}

#: ``TeemonConfig.__init__``'s own defaults, one per field, in order.
CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(TeemonConfig))
PAPER_DEFAULTS = TeemonConfig.__init__.__defaults__
assert len(PAPER_DEFAULTS) == len(CONFIG_FIELDS)


def profile_defaults(profile: str) -> tuple:
    """``PAPER_DEFAULTS`` with the rows of ``profile`` swapped in."""
    moved = TEST_PROFILES[profile]
    return tuple(
        moved.get(name, default)
        for name, default in zip(CONFIG_FIELDS, PAPER_DEFAULTS)
    )


# Applied at import, not from a fixture: test modules build
# module-level configs while they are being collected.
TeemonConfig.__init__.__defaults__ = profile_defaults(
    os.environ.get("TEEMON_TEST_PROFILE", "")
)


@pytest.fixture
def kernel() -> Kernel:
    """A fresh simulated host."""
    return Kernel(seed=1234, hostname="test-host")


@pytest.fixture
def sgx_kernel() -> Kernel:
    """A fresh host with the SGX driver loaded."""
    k = Kernel(seed=1234, hostname="sgx-test-host")
    k.load_module(SgxDriver())
    return k


@pytest.fixture
def driver(sgx_kernel: Kernel) -> SgxDriver:
    """The loaded SGX driver of ``sgx_kernel``."""
    return sgx_kernel.module("isgx")
