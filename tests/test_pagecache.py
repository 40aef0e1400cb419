"""Page-cache model unit tests."""

import pytest

from repro.errors import MemoryError_
from repro.simkernel.clock import VirtualClock
from repro.simkernel.hooks import HookRegistry
from repro.simkernel.pagecache import PageCache


def _cache():
    hooks = HookRegistry()
    return PageCache(VirtualClock(), hooks), hooks


def test_hit_ratio():
    cache, _hooks = _cache()
    cache.account_activity(pid=1, reads=3, hit_ratio=0.7)  # 2 hits, 1 miss
    assert cache.stats.hit_ratio() == pytest.approx(2 / 3)


def test_hit_ratio_empty_is_zero():
    cache, _hooks = _cache()
    assert cache.stats.hit_ratio() == 0.0


def test_account_activity_reads_split_by_ratio():
    cache, hooks = _cache()
    cache.account_activity(pid=1, reads=1000, hit_ratio=0.9)
    assert hooks.fire_count("mark_page_accessed") == 900
    assert hooks.fire_count("add_to_page_cache_lru") == 100
    assert cache.stats.hits == 900
    assert cache.stats.misses == 100


def test_account_activity_writes():
    cache, hooks = _cache()
    cache.account_activity(pid=1, writes=50)
    assert hooks.fire_count("account_page_dirtied") == 50
    assert hooks.fire_count("mark_buffer_dirty") == 50
    assert cache.stats.dirtied == 50


def test_account_activity_bad_ratio_rejected():
    cache, _hooks = _cache()
    with pytest.raises(MemoryError_):
        cache.account_activity(pid=1, reads=10, hit_ratio=1.5)
