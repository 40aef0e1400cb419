"""Virtual-memory model unit tests."""

import pytest

from repro.errors import MemoryError_
from repro.simkernel.memory import (
    FAULT_KIND_BY_CODE,
    FaultKind,
    PAGE_SIZE,
    pages_for_bytes,
)


def test_pages_for_bytes_rounds_up():
    assert pages_for_bytes(0) == 0
    assert pages_for_bytes(1) == 1
    assert pages_for_bytes(PAGE_SIZE) == 1
    assert pages_for_bytes(PAGE_SIZE + 1) == 2


def test_pages_for_negative_rejected():
    with pytest.raises(MemoryError_):
        pages_for_bytes(-1)


def test_fault_kind_codes_are_stable_and_bijective():
    assert FaultKind.NO_PAGE_FOUND.code == 0
    assert len(FAULT_KIND_BY_CODE) == len(FaultKind)
    for kind in FaultKind:
        assert FAULT_KIND_BY_CODE[kind.code] is kind


def test_fault_carries_kind_fields(kernel):
    process = kernel.spawn_process("app")
    seen = []
    kernel.hooks.attach("exceptions:page_fault_user", seen.append)
    kernel.memory.account_faults(process.pid, 3, kind=FaultKind.WRITE_FAULT)
    assert seen[0].count == 3
    assert seen[0].get("fault_kind") == "write_fault"
    assert seen[0].get("fault_kind_code") == FaultKind.WRITE_FAULT.code


def test_map_range_allocates_frames(kernel):
    process = kernel.spawn_process("app")
    before = kernel.memory.physical.free_frames
    kernel.memory.map_range(process.pid, start_page=0, num_pages=100)
    assert kernel.memory.physical.free_frames == before - 100
    assert kernel.memory.space(process.pid).rss_pages == 100


def test_map_range_idempotent_on_overlap(kernel):
    process = kernel.spawn_process("app")
    kernel.memory.map_range(process.pid, 0, 10)
    kernel.memory.map_range(process.pid, 5, 10)  # 5 overlap
    assert kernel.memory.space(process.pid).rss_pages == 15


def test_destroy_space_releases_everything(kernel):
    process = kernel.spawn_process("app")
    before = kernel.memory.physical.free_frames - kernel.memory.space(process.pid).rss_pages
    kernel.memory.map_range(process.pid, 0, 50)
    kernel.exit_process(process)  # destroys the space
    assert kernel.memory.physical.free_frames == before


def test_double_space_creation_rejected(kernel):
    process = kernel.spawn_process("app")
    with pytest.raises(MemoryError_):
        kernel.memory.create_space(process.pid)


def test_unknown_space_lookup_rejected(kernel):
    with pytest.raises(MemoryError_):
        kernel.memory.space(99999)


def test_account_faults_user_batch(kernel):
    process = kernel.spawn_process("app")
    kernel.memory.account_faults(process.pid, 500, kind=FaultKind.NO_PAGE_FOUND)
    assert kernel.memory.user_faults == 500
    assert kernel.memory.total_faults == 500
    assert kernel.hooks.fire_count("exceptions:page_fault_user") == 500
    assert kernel.hooks.fire_count("PERF_COUNT_SW_PAGE_FAULTS") == 500


def test_account_faults_kernel_batch(kernel):
    kernel.memory.account_faults(0, 300, kernel=True)
    assert kernel.memory.kernel_faults == 300
    assert kernel.hooks.fire_count("exceptions:page_fault_kernel") == 300
    assert kernel.hooks.fire_count("PERF_COUNT_SW_PAGE_FAULTS") == 300


def test_account_faults_zero_noop(kernel):
    kernel.memory.account_faults(0, 0)
    assert kernel.memory.total_faults == 0


def test_physical_exhaustion_raises():
    from repro.simkernel.kernel import Kernel

    tiny = Kernel(seed=1, memory_bytes=10 * PAGE_SIZE)
    process = tiny.spawn_process("hog")
    with pytest.raises(MemoryError_):
        tiny.memory.map_range(process.pid, 0, 11)


def test_physical_bad_release_rejected(kernel):
    with pytest.raises(MemoryError_):
        kernel.memory.physical.release(kernel.memory.physical.allocated + 1)
