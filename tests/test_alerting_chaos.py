"""Alerting chaos: deterministic journals under faults and kill-loops.

The headline invariants of the alerting engine, held under chaos:

* the same seed yields a *byte-identical* alert journal across two
  independent runs — fault schedule, state transitions, notification
  outcomes, retry timing, everything;
* a :class:`MonitorSupervisor` kill/resurrect mid-``for_`` window
  neither double-fires the alert (the restored instance keeps its
  original ``active_since`` and its notified state) nor loses a firing
  alert (restored firing instances stay in the firing set until they
  genuinely resolve).

Kept out of the tier-1 run (see .github/workflows/ci.yml) and executed
as its own soak step, mirroring the WAL kill-loop leg.
"""

from types import SimpleNamespace
from urllib.parse import urlparse

from repro.faults import CrashInjector, FaultPlan, FaultyHttpNetwork, FlapInjector
from repro.net.http import HttpNetwork
from repro.pmag.alerting import AlertingRule, Receiver, Route
from repro.simkernel.clock import seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.sgx.driver import SgxDriver
from repro.teemon import MonitorSupervisor, TeemonConfig, deploy

TARGET_DOWN_FOR_S = 30.0


def build_rig(seed, flap=False, webhook=False, horizon_crashes=False):
    """A supervised alerting deployment over an (optionally faulty) net."""
    kernel = Kernel(seed=seed, hostname="chaos-host")
    kernel.load_module(SgxDriver())
    rng = DeterministicRng(seed)
    inner = HttpNetwork()
    plan = FaultPlan(kernel.clock, rng.fork("plan"))
    injectors = SimpleNamespace(flap=None, crash=None)
    if flap:
        injectors.flap = plan.add(FlapInjector(
            rng.fork("flap"), mean_up_s=60.0, mean_down_s=35.0,
        ))
    network = FaultyHttpNetwork(inner, plan)

    receivers = [Receiver("oncall")]
    delivered = []
    if webhook:
        receivers = [Receiver("oncall", url="http://hook:8080/notify")]
        endpoint = inner.register("hook", 8080, "/notify", lambda: "ok")
        endpoint.post_handler = lambda body: (delivered.append(body), "ok")[1]

    config = TeemonConfig(
        scrape_interval_s=5.0,
        enable_wal=True, wal_flush_every_s=1.0, checkpoint_every_s=60.0,
        enable_alerting=True,
        alert_eval_interval_s=5.0,
        alert_rules=[AlertingRule(
            name="TargetDown", expr="up == 0", for_s=TARGET_DOWN_FOR_S,
            labels={"severity": "critical"},
        )],
        alert_route=Route(receiver="oncall", group_interval_s=10.0),
        alert_receivers=receivers,
    )
    disk = SimDisk()
    deployment = deploy(kernel, config, network=network, disk=disk,
                        start=False)
    supervisor = MonitorSupervisor(deployment, plan=plan)
    deployment.start()
    crash_times = None
    if horizon_crashes:
        injector = CrashInjector(
            rng.fork("crash"), mean_interval_s=60.0, min_interval_s=20.0,
            restart_delay_s=2.0,
        )
        crash_times = injector.arm(kernel.clock, supervisor, seconds(600))
        injectors.crash = injector
    return SimpleNamespace(
        kernel=kernel, clock=kernel.clock, plan=plan, inner=inner,
        deployment=deployment, supervisor=supervisor, injectors=injectors,
        delivered=delivered, crash_times=crash_times,
    )


def node_endpoint(rig):
    """The node exporter's HTTP endpoint (substrate; survives kills)."""
    url = urlparse(rig.deployment.exporters["node"].url)
    return rig.inner.lookup(url.hostname, url.port, url.path)


def subject_events(journal_lines, fragment):
    """``(time_ns, kind)`` of state events whose subject contains
    ``fragment``, in journal order."""
    events = []
    for line in journal_lines:
        pieces = line.split(" ", 3)
        time_ns, kind, subject = int(pieces[0]), pieces[1], pieces[2]
        if kind.startswith("alert-") and fragment in subject:
            events.append((time_ns, kind))
    return events


# ---------------------------------------------------------------------------
# Determinism: same seed, byte-identical journal
# ---------------------------------------------------------------------------
def run_flap_leg(seed):
    rig = build_rig(seed, flap=True, webhook=True)
    rig.clock.advance(seconds(600))
    rig.deployment.stop()
    return rig


def test_same_seed_yields_byte_identical_journals():
    first = run_flap_leg(41)
    second = run_flap_leg(41)
    text = first.deployment.alert_journal.journal_text()
    assert text == second.deployment.alert_journal.journal_text()
    assert text  # the run produced actual alert traffic
    assert (first.deployment.notification_router.counters
            == second.deployment.notification_router.counters)
    assert first.delivered == second.delivered


def test_different_seeds_diverge():
    assert (run_flap_leg(41).deployment.alert_journal.journal_text()
            != run_flap_leg(42).deployment.alert_journal.journal_text())


def test_flap_journal_respects_state_machine_order():
    rig = run_flap_leg(43)
    lines = rig.deployment.alert_journal.lines()
    # Per alert instance: firing only ever follows pending (or a firing
    # restore), and resolves only ever follow firing.
    subjects = {
        line.split(" ", 3)[2] for line in lines
        if line.split(" ", 3)[1].startswith("alert-")
    }
    assert subjects  # flap actually drove alerts
    for subject in subjects:
        armed = False  # pending seen, not yet fired
        firing = False
        for _t, kind in subject_events(lines, subject):
            if kind == "alert-pending":
                assert not firing
                armed = True
            elif kind == "alert-firing":
                assert armed and not firing
                firing, armed = True, False
            elif kind == "alert-resolved":
                assert firing
                firing = False
            elif kind == "alert-expired":
                assert armed and not firing
                armed = False


# ---------------------------------------------------------------------------
# Kill/resurrect mid-for_: no double-fire, original active_since
# ---------------------------------------------------------------------------
def test_kill_mid_pending_window_fires_exactly_once():
    rig = build_rig(7)
    clock, deployment, supervisor = rig.clock, rig.deployment, rig.supervisor
    endpoint = node_endpoint(rig)

    clock.advance(seconds(100))
    endpoint.healthy = False  # node target 503s from the next scrape on
    clock.advance(seconds(12))  # scrape sees it down; alert goes pending
    assert [i.state for i in deployment.session.alerts()] == ["pending"]

    # Crash mid-for_: well inside the 30s window, past a flush boundary.
    clock.advance(seconds(5))
    supervisor.crash()
    clock.advance(seconds(4))
    supervisor.recover()

    journal = deployment.alert_journal
    restored = journal.lines("alert-restored")
    assert len(restored) == 1 and "state=pending" in restored[0]
    [instance] = deployment.session.alerts()
    assert instance.restored and instance.state == "pending"

    # The restored instance fires from its *original* activation time.
    clock.advance(seconds(60))
    firings = journal.lines("alert-firing")
    assert len(firings) == 1  # exactly one fire across the crash
    [instance] = deployment.session.firing_alerts()
    assert (instance.fired_at_ns - instance.active_since_ns
            >= seconds(int(TARGET_DOWN_FOR_S)))
    # Downtime counted toward for_: it fired within ~2 eval intervals of
    # the window elapsing, crash or no crash.
    assert (instance.fired_at_ns - instance.active_since_ns
            <= seconds(int(TARGET_DOWN_FOR_S) + 10))

    # And it resolves normally once the target comes back.
    endpoint.healthy = True
    clock.advance(seconds(30))
    assert deployment.session.firing_alerts() == []
    assert len(journal.lines("alert-resolved")) == 1
    deployment.stop()


def test_firing_alert_survives_kill_without_renotifying():
    rig = build_rig(9)
    clock, deployment, supervisor = rig.clock, rig.deployment, rig.supervisor
    endpoint = node_endpoint(rig)

    clock.advance(seconds(100))
    endpoint.healthy = False
    clock.advance(seconds(60))  # down > for_: pending then firing
    journal = deployment.alert_journal
    assert len(journal.lines("alert-firing")) == 1
    notified_before = len(journal.lines("notify-delivered"))
    assert notified_before == 1

    clock.advance(seconds(10))
    supervisor.crash()
    clock.advance(seconds(5))
    supervisor.recover()

    # The firing alert did not vanish...
    restored = journal.lines("alert-restored")
    assert len(restored) == 1 and "state=firing" in restored[0]
    [instance] = deployment.session.firing_alerts()
    assert instance.state == "firing" and instance.restored
    # ...and was not re-notified: the pre-crash delivery stands.
    clock.advance(seconds(60))
    assert len(journal.lines("notify-delivered")) == notified_before
    assert len(journal.lines("alert-firing")) == 1

    # Resolution after the crash still notifies exactly once.
    endpoint.healthy = True
    clock.advance(seconds(30))
    assert deployment.session.firing_alerts() == []
    delivered = journal.lines("notify-delivered")
    assert len(delivered) == notified_before + 1
    assert "resolved=1" in delivered[-1]
    deployment.stop()


# ---------------------------------------------------------------------------
# Kill-loop soak: seeded crashes over the horizon, journal reproducible
# ---------------------------------------------------------------------------
def run_kill_loop(seed):
    rig = build_rig(seed, flap=True, horizon_crashes=True)
    rig.clock.advance(seconds(605))
    rig.deployment.stop()
    return rig


def test_kill_loop_journal_is_reproducible_and_sane():
    first = run_kill_loop(97)
    second = run_kill_loop(97)
    text = first.deployment.alert_journal.journal_text()
    assert text == second.deployment.alert_journal.journal_text()

    supervisor = first.supervisor
    assert len(first.crash_times) >= 5  # the loop really looped
    assert supervisor.crashes == supervisor.recoveries

    # Sanity over the combined flap+crash run: every firing is armed by
    # a pending or a firing restore, never conjured from nothing.
    lines = first.deployment.alert_journal.lines()
    subjects = {
        line.split(" ", 3)[2] for line in lines
        if line.split(" ", 3)[1] == "alert-firing"
    }
    assert subjects
    for subject in subjects:
        live = False  # an episode (pending or restored) is open
        for _t, kind in subject_events(lines, subject):
            if kind == "alert-pending":
                live = True
            elif kind == "alert-restored":
                live = True
            elif kind == "alert-firing":
                assert live, f"unarmed firing for {subject}"
            elif kind in ("alert-resolved", "alert-expired"):
                live = False


def test_kill_loop_restores_rule_cursors():
    rig = run_kill_loop(53)
    # Recording rules ran across every resurrect; the WAL carried their
    # cursors over (seed_cursors), so each outage was backfilled from
    # where the dead monitor stopped.
    stats = rig.deployment.session.rule_stats()
    assert stats["samples_recorded"] > 0
    report_cursors = [
        getattr(r, "cursors", {}) for r in rig.supervisor.reports
    ]
    assert any(cursors for cursors in report_cursors)
