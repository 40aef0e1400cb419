"""Virtual filesystem and Kernel facade unit tests."""

import pytest

from repro.errors import SimulationError
from repro.simkernel.clock import seconds
from repro.simkernel.kernel import Kernel, KernelModule
from repro.simkernel.procfs import VirtualFs


# ---------------------------------------------------------------------------
# VirtualFs
# ---------------------------------------------------------------------------
def test_publish_and_read_static():
    fs = VirtualFs()
    fs.publish("/proc/foo", "hello")
    assert fs.read("/proc/foo") == "hello"


def test_lazy_content_evaluated_per_read():
    fs = VirtualFs()
    counter = {"n": 0}

    def render():
        counter["n"] += 1
        return str(counter["n"])

    fs.publish("/sys/lazy", render)
    assert fs.read("/sys/lazy") == "1"
    assert fs.read("/sys/lazy") == "2"


def test_relative_path_rejected():
    with pytest.raises(SimulationError):
        VirtualFs().publish("proc/foo", "x")


def test_path_normalisation():
    fs = VirtualFs()
    fs.publish("/a//b/", "x")
    assert fs.read("/a/b") == "x"
    assert fs.exists("/a//b")


def test_missing_file_read_raises():
    with pytest.raises(SimulationError):
        VirtualFs().read("/nope")


# ---------------------------------------------------------------------------
# Kernel facade
# ---------------------------------------------------------------------------
def test_spawn_process_assigns_unique_pids(kernel):
    a = kernel.spawn_process("a")
    b = kernel.spawn_process("b")
    assert a.pid != b.pid
    assert kernel.process(a.pid) is a


def test_spawn_with_threads(kernel):
    process = kernel.spawn_process("multi", threads=4)
    assert len(process.live_threads()) == 4


def test_spawn_zero_threads_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.spawn_process("bad", threads=0)


def test_exit_process_removes_it(kernel):
    process = kernel.spawn_process("short")
    kernel.exit_process(process, code=3)
    assert process.exited
    assert process.exit_code == 3
    with pytest.raises(SimulationError):
        kernel.process(process.pid)


def test_double_exit_rejected(kernel):
    process = kernel.spawn_process("short")
    kernel.exit_process(process)
    with pytest.raises(SimulationError):
        kernel.exit_process(process)


def test_spawn_thread_on_exited_process_rejected(kernel):
    process = kernel.spawn_process("short")
    kernel.exit_process(process)
    with pytest.raises(SimulationError):
        kernel.spawn_thread(process)


def test_find_processes_by_name(kernel):
    kernel.spawn_process("redis-server")
    kernel.spawn_process("redis-server")
    kernel.spawn_process("nginx")
    assert len(kernel.find_processes("redis-server")) == 2


def test_proc_stat_reflects_cpu_accounting(kernel):
    process = kernel.spawn_process("app")
    thread = next(iter(process.threads.values()))
    kernel.scheduler.account_cpu_time(thread, seconds(2))
    kernel.scheduler.account_switches(process.pid, 42)
    content = kernel.vfs.read("/proc/stat")
    assert "ctxt 42" in content
    assert content.startswith("cpu 200 ")  # 2 s = 200 USER_HZ ticks


def test_meminfo_reflects_allocations(kernel):
    process = kernel.spawn_process("app")
    kernel.memory.map_range(process.pid, 0, 256)  # 1 MiB
    content = kernel.vfs.read("/proc/meminfo")
    lines = dict(
        line.split(":")[0:1] + [line.split()[1]] for line in content.splitlines()
    )
    assert int(lines["MemTotal"]) - int(lines["MemFree"]) >= 1024


def test_uptime_tracks_clock(kernel):
    kernel.clock.advance(seconds(12))
    assert float(kernel.vfs.read("/proc/uptime")) == pytest.approx(12.0)


def test_module_lifecycle(kernel):
    class Demo(KernelModule):
        name = "demo"
        loaded = unloaded = False

        def on_load(self, k):
            self.loaded = True

        def on_unload(self, k):
            self.unloaded = True

    module = Demo()
    kernel.load_module(module)
    assert module.loaded
    assert kernel.has_module("demo")
    assert kernel.module("demo") is module
    with pytest.raises(SimulationError):
        kernel.load_module(Demo())
    kernel.unload_module("demo")
    assert module.unloaded
    assert not kernel.has_module("demo")
    with pytest.raises(SimulationError):
        kernel.unload_module("demo")


def test_shared_clock_between_kernels():
    from repro.simkernel.clock import VirtualClock

    clock = VirtualClock()
    a = Kernel(seed=1, hostname="a", clock=clock)
    b = Kernel(seed=2, hostname="b", clock=clock)
    a.clock.advance(100)
    assert b.clock.now_ns == 100
