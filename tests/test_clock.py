"""Virtual clock unit tests."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.simkernel.clock import (
    NANOS_PER_SEC,
    VirtualClock,
    micros,
    millis,
    seconds,
)


def test_starts_at_zero():
    assert VirtualClock().now_ns == 0


def test_starts_at_given_time():
    assert VirtualClock(start_ns=50).now_ns == 50


def test_advance_moves_time():
    clock = VirtualClock()
    clock.advance(1000)
    assert clock.now_ns == 1000


def test_advance_accumulates():
    clock = VirtualClock()
    clock.advance(300)
    clock.advance(700)
    assert clock.now_ns == 1000


def test_advance_negative_rejected():
    with pytest.raises(SimulationError):
        VirtualClock().advance(-1)


def test_run_until_backwards_rejected():
    clock = VirtualClock(start_ns=100)
    with pytest.raises(SimulationError):
        clock.run_until(50)


def test_conversion_helpers():
    assert seconds(1.5) == 1_500_000_000
    assert millis(2) == 2_000_000
    assert micros(3) == 3_000


def test_now_seconds():
    clock = VirtualClock()
    clock.advance(seconds(2.5))
    assert clock.now_seconds == pytest.approx(2.5)


def test_callback_fires_at_deadline():
    clock = VirtualClock()
    fired = []
    clock.call_at(500, lambda: fired.append(clock.now_ns))
    clock.advance(1000)
    assert fired == [500]


def test_callback_not_fired_early():
    clock = VirtualClock()
    fired = []
    clock.call_at(500, lambda: fired.append(True))
    clock.advance(499)
    assert fired == []
    clock.advance(1)
    assert fired == [True]


def test_call_later_relative():
    clock = VirtualClock()
    clock.advance(100)
    fired = []
    clock.call_later(50, lambda: fired.append(clock.now_ns))
    clock.advance(100)
    assert fired == [150]


def test_call_later_negative_rejected():
    with pytest.raises(SimulationError):
        VirtualClock().call_later(-5, lambda: None)


def test_schedule_in_past_rejected():
    clock = VirtualClock(start_ns=100)
    with pytest.raises(SimulationError):
        clock.call_at(50, lambda: None)


def test_callbacks_fire_in_time_order():
    clock = VirtualClock()
    order = []
    clock.call_at(300, lambda: order.append("c"))
    clock.call_at(100, lambda: order.append("a"))
    clock.call_at(200, lambda: order.append("b"))
    clock.advance(400)
    assert order == ["a", "b", "c"]


def test_same_deadline_fires_in_schedule_order():
    clock = VirtualClock()
    order = []
    clock.call_at(100, lambda: order.append(1))
    clock.call_at(100, lambda: order.append(2))
    clock.call_at(100, lambda: order.append(3))
    clock.advance(100)
    assert order == [1, 2, 3]


def test_callback_can_reschedule_itself():
    clock = VirtualClock()
    fired = []

    def tick():
        fired.append(clock.now_ns)
        if len(fired) < 3:
            clock.call_later(10, tick)

    clock.call_later(10, tick)
    clock.advance(100)
    assert fired == [10, 20, 30]


def test_cancel_prevents_firing():
    clock = VirtualClock()
    fired = []
    handle = clock.call_at(100, lambda: fired.append(True))
    handle.cancel()
    clock.advance(200)
    assert fired == []


def test_cancel_is_idempotent():
    clock = VirtualClock()
    handle = clock.call_at(100, lambda: None)
    handle.cancel()
    handle.cancel()
    clock.advance(200)


def test_cancelled_callback_is_released_before_its_deadline():
    # A cancelled timer must not keep what its callback closes over
    # alive until the clock gets round to popping it: a killed monitor's
    # timers would pin the whole dead incarnation.
    class Callback:
        def __call__(self):
            raise AssertionError("cancelled timer fired")

    clock = VirtualClock()
    callback = Callback()
    dead = weakref.ref(callback)
    handle = clock.call_at(10**12, callback)
    clock.call_at(10**12, lambda: None)  # the instant stays queued
    del callback
    handle.cancel()
    gc.collect()
    assert dead() is None
    assert clock.now_ns == 0 and clock.pending_count() == 1


def test_pending_count_tracks_cancellation():
    clock = VirtualClock()
    handle = clock.call_at(100, lambda: None)
    clock.call_at(200, lambda: None)
    assert clock.pending_count() == 2
    handle.cancel()
    assert clock.pending_count() == 1
    clock.advance(300)
    assert clock.pending_count() == 0


def test_time_observed_inside_callback_is_deadline():
    clock = VirtualClock()
    seen = []
    clock.call_at(123, lambda: seen.append(clock.now_ns))
    clock.advance(1000)
    assert seen == [123]
    assert clock.now_ns == 1000


def test_nested_scheduling_within_advance_window():
    clock = VirtualClock()
    order = []
    clock.call_at(10, lambda: (order.append("outer"),
                               clock.call_at(20, lambda: order.append("inner"))))
    clock.advance(30)
    assert order == ["outer", "inner"]


# ---------------------------------------------------------------------------
# call_every
# ---------------------------------------------------------------------------
def _logging_clock():
    """A clock that logs the (deadline, sequence) of every timer armed."""
    clock = VirtualClock()
    armed = []
    call_at = clock.call_at

    def logging_call_at(deadline_ns, callback):
        handle = call_at(deadline_ns, callback)
        armed.append((handle.deadline_ns, handle.sequence))
        return handle

    clock.call_at = logging_call_at
    return clock, armed


def _two_jobs_sharing_every_instant(periodic):
    """Two 10 ns jobs whose work arms a one-shot landing on the next
    shared instant; ``periodic(clock, work)`` starts one job."""
    clock, armed = _logging_clock()
    order = []

    def job(name):
        def work():
            order.append((clock.now_ns, name))
            clock.call_later(
                10, lambda: order.append((clock.now_ns, name + "-child")))
        return work

    periodic(clock, job("a"))
    periodic(clock, job("b"))
    clock.advance(40)
    return order, armed


def test_call_every_matches_a_hand_written_tick_sequence_for_sequence():
    def hand_written(clock, work):
        def tick():
            work()
            clock.call_later(10, tick)
        clock.call_later(10, tick)

    by_hand = _two_jobs_sharing_every_instant(hand_written)
    by_helper = _two_jobs_sharing_every_instant(
        lambda clock, work: clock.call_every(10, work))
    assert by_helper == by_hand
    order, _armed = by_helper
    # Callback-then-reschedule: a child armed by the work runs before the
    # job's own next firing at the instant they share.
    assert order[2:6] == [(20, "a-child"), (20, "a"), (20, "b-child"), (20, "b")]


def test_call_every_first_delay():
    clock = VirtualClock()
    fired = []
    clock.call_every(10, lambda: fired.append(clock.now_ns), first_delay_ns=3)
    clock.advance(25)
    assert fired == [3, 13, 23]


def test_call_every_rejects_non_positive_interval():
    with pytest.raises(SimulationError):
        VirtualClock().call_every(0, lambda: None)


def test_call_every_cancel_from_inside_the_callback_never_rearms():
    clock = VirtualClock()
    fired = []

    def work():
        fired.append(clock.now_ns)
        if len(fired) == 2:
            handle.cancel()

    handle = clock.call_every(10, work)
    clock.advance(100)
    assert fired == [10, 20]
    assert clock.pending_count() == 0


def test_call_every_cancel_then_restart_leaves_no_stale_chain():
    clock = VirtualClock()
    fired = []
    handles = []

    def work():
        fired.append(clock.now_ns)
        if clock.now_ns == 20:  # stop and start again mid-tick
            handles[-1].cancel()
            handles.append(clock.call_every(10, work))

    handles.append(clock.call_every(10, work))
    clock.advance(50)
    assert fired == [10, 20, 30, 40, 50]
    assert clock.pending_count() == 1
    handles[-1].cancel()
    handles[-1].cancel()  # idempotent
    clock.advance(50)
    assert fired == [10, 20, 30, 40, 50]
    assert clock.pending_count() == 0
