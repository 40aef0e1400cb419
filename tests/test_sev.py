"""SEV extension tests: driver, hypervisor, exporter, and end-to-end
monitoring of a VM-based TEE with the unchanged PMAG."""

import pytest

from repro.errors import DeploymentError, SgxError
from repro.net.http import HttpNetwork
from repro.openmetrics.parser import parse_exposition
from repro.pmag.query import QueryEngine
from repro.pmag.scrape import ScrapeManager, ScrapeTarget
from repro.pmag.tsdb import Tsdb
from repro.sev import ProtectedVm, QemuSevExtension, SevDriver, SevMetricsExporter
from repro.sev.driver import PARAMS_DIR
from repro.simkernel.clock import seconds
from repro.simkernel.kernel import Kernel

MIB = 1024 * 1024


@pytest.fixture
def sev_kernel():
    kernel = Kernel(seed=71, hostname="epyc-host")
    kernel.load_module(SevDriver())
    return kernel


@pytest.fixture
def sev_driver(sev_kernel):
    return sev_kernel.module("ccp")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def test_launch_flow_lifecycle(sev_kernel, sev_driver):
    guest = sev_driver.launch_start()
    sev_driver.launch_update_data(guest.handle, b"kernel-image")
    digest = sev_driver.launch_measure(guest.handle)
    assert digest
    asid = sev_driver.activate(guest.handle)
    assert asid >= 1
    assert sev_driver.active_guests == 1
    assert sev_driver.free_asids == sev_driver.asid_count - 1
    sev_driver.decommission(guest.handle)
    assert sev_driver.active_guests == 0
    assert sev_driver.free_asids == sev_driver.asid_count


def test_unload_decommissions_active_guests(sev_kernel, sev_driver):
    guest = sev_driver.launch_start()
    sev_driver.launch_update_data(guest.handle, b"kernel-image")
    sev_driver.launch_measure(guest.handle)
    sev_driver.activate(guest.handle)
    sev_kernel.unload_module("ccp")
    assert sev_driver.active_guests == 0
    assert sev_driver.decommissions_total == 1
    assert sev_driver.free_asids == sev_driver.asid_count


def test_launch_digest_depends_on_image(sev_kernel, sev_driver):
    a = sev_driver.launch_start()
    sev_driver.launch_update_data(a.handle, b"image-A")
    b = sev_driver.launch_start()
    sev_driver.launch_update_data(b.handle, b"image-B")
    assert sev_driver.launch_measure(a.handle) != sev_driver.launch_measure(b.handle)


def test_asid_pool_exhaustion():
    kernel = Kernel(seed=72)
    driver = SevDriver(asid_count=2)
    kernel.load_module(driver)
    for _ in range(2):
        guest = driver.launch_start()
        driver.activate(guest.handle)
    extra = driver.launch_start()
    with pytest.raises(SgxError, match="no free SEV ASIDs"):
        driver.activate(extra.handle)


def test_update_after_activate_rejected(sev_kernel, sev_driver):
    guest = sev_driver.launch_start()
    sev_driver.activate(guest.handle)
    with pytest.raises(SgxError):
        sev_driver.launch_update_data(guest.handle, b"late")


def test_double_activate_rejected(sev_kernel, sev_driver):
    guest = sev_driver.launch_start()
    sev_driver.activate(guest.handle)
    with pytest.raises(SgxError):
        sev_driver.activate(guest.handle)


def test_module_params_published(sev_kernel, sev_driver):
    read = lambda p: int(sev_kernel.vfs.read(f"{PARAMS_DIR}/{p}"))
    assert read("sev_nr_asids_total") == sev_driver.asid_count
    guest = sev_driver.launch_start()
    sev_driver.activate(guest.handle)
    assert read("sev_nr_guests_active") == 1
    assert read("sev_activations_total") == 1


def test_driver_hooks_fire(sev_kernel, sev_driver):
    guest = sev_driver.launch_start()
    sev_driver.launch_update_data(guest.handle, b"x" * 8192)
    assert sev_kernel.hooks.fire_count("ccp:sev_launch_start") == 1
    assert sev_kernel.hooks.fire_count("ccp:sev_launch_update_data") == 2  # 2 pages


# ---------------------------------------------------------------------------
# Hypervisor
# ---------------------------------------------------------------------------
def test_launch_vm_allocates_everything(sev_kernel):
    qemu = QemuSevExtension(sev_kernel)
    vm = qemu.launch_vm("db-guest", memory_bytes=512 * MIB, vcpus=4)
    assert vm.running
    assert vm.launch_digest
    assert len(vm.process.live_threads()) == 4
    assert sev_kernel.memory.space(vm.pid).rss_pages == 512 * MIB // 4096
    assert qemu.total_protected_bytes() == 512 * MIB
    assert sev_kernel.module("ccp").active_guests == 1


def test_shutdown_vm_releases(sev_kernel):
    qemu = QemuSevExtension(sev_kernel)
    vm = qemu.launch_vm("g", memory_bytes=64 * MIB)
    qemu.shutdown_vm("g")
    assert sev_kernel.module("ccp").active_guests == 0
    assert vm.process.exited
    with pytest.raises(SgxError):
        qemu.vm("g")


def test_vm_name_collision_rejected(sev_kernel):
    qemu = QemuSevExtension(sev_kernel)
    qemu.launch_vm("g", memory_bytes=64 * MIB)
    with pytest.raises(SgxError):
        qemu.launch_vm("g", memory_bytes=64 * MIB)


def test_hypervisor_requires_driver():
    with pytest.raises(SgxError, match="ccp driver"):
        QemuSevExtension(Kernel(seed=1))


# ---------------------------------------------------------------------------
# Exporter + end-to-end
# ---------------------------------------------------------------------------
def test_exporter_requires_driver():
    with pytest.raises(DeploymentError):
        SevMetricsExporter(Kernel(seed=1))


def test_exporter_exposes_driver_and_vm_metrics(sev_kernel):
    qemu = QemuSevExtension(sev_kernel)
    qemu.launch_vm("redis-vm", memory_bytes=256 * MIB, vcpus=2)
    qemu.launch_vm("web-vm", memory_bytes=128 * MIB, vcpus=1)
    network = HttpNetwork()
    exporter = SevMetricsExporter(sev_kernel, hypervisor=qemu)
    exporter.expose(network)
    body = network.get_url(exporter.url).body
    samples = {
        (s.name, s.labels_dict().get("vm")): s.value
        for s in parse_exposition(body)
    }
    assert samples[("sev_guests_active", None)] == 2
    assert samples[("sev_guest_memory_bytes", "redis-vm")] == 256 * MIB
    assert samples[("sev_guest_memory_bytes", "web-vm")] == 128 * MIB
    assert samples[("sev_guest_vcpus", "redis-vm")] == 2


def test_unchanged_pmag_monitors_sev_host(sev_kernel):
    """The generality claim end-to-end: same scrape/query stack, new TEE."""
    qemu = QemuSevExtension(sev_kernel)
    qemu.launch_vm("guest-0", memory_bytes=512 * MIB)
    network = HttpNetwork()
    exporter = SevMetricsExporter(sev_kernel, hypervisor=qemu)
    exporter.expose(network)
    tsdb = Tsdb()
    manager = ScrapeManager(sev_kernel.clock, network, tsdb)
    manager.add_target(ScrapeTarget(job="sev", instance="epyc-host",
                                    url=exporter.url))
    manager.start()
    sev_kernel.clock.advance(seconds(30))
    # Launch a second guest mid-run; the next scrape sees it.
    qemu.launch_vm("guest-1", memory_bytes=256 * MIB)
    sev_kernel.clock.advance(seconds(10))
    manager.stop()
    engine = QueryEngine(tsdb)
    now = sev_kernel.clock.now_ns
    active = engine.instant("sev_guests_active", now)
    assert active[0][1] == 2.0
    per_vm = engine.instant("sum by (vm) (sev_guest_memory_bytes)", now)
    by_vm = {labels.get("vm"): value for labels, value in per_vm}
    assert by_vm == {"guest-0": 512 * MIB, "guest-1": 256 * MIB}
    # Series history shows the guest count stepping 1 -> 2.
    series = engine.range_query("sev_guests_active", 0, now, seconds(5))
    values = [s.value for s in series[0].samples]
    assert 1.0 in values and values[-1] == 2.0
