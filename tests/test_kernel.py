"""Tests for the event kernel: ordering, cancellation, time semantics.

Every semantic test runs under every registered scheduler (the ``sim``
fixture is parametrized): the epoch calendar-ring fast path earns its keep
only by being observably identical to the heap reference.  Ring mechanics
(heap/ring merging at the window boundary, stale handles) get their own
tests below, still run against every kernel.
"""

import pytest

from repro.sim import Simulator, scheduler_names
from repro.sim.epoch import _WINDOW


@pytest.fixture(params=scheduler_names())
def sim(request):
    return Simulator(scheduler=request.param)


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        Simulator(scheduler="wheel")


def test_scheduler_is_reported(sim):
    assert sim.scheduler in scheduler_names()


def test_schedule_and_run_in_order(sim):
    log = []
    sim.schedule(5, log.append, "b")
    sim.schedule(3, log.append, "a")
    sim.schedule(9, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]


def test_same_cycle_events_fire_in_scheduling_order(sim):
    log = []
    for tag in range(10):
        sim.schedule(4, log.append, tag)
    sim.run()
    assert log == list(range(10))


def test_now_advances_with_events(sim):
    seen = []
    sim.schedule(7, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7]


def test_run_until_is_exclusive_of_bound(sim):
    log = []
    sim.schedule(10, log.append, "at10")
    sim.run_until(10)
    assert log == []
    assert sim.now == 10
    sim.run_until(11)
    assert log == ["at10"]


def test_run_until_advances_now_even_without_events(sim):
    sim.run_until(1234)
    assert sim.now == 1234


def test_nested_scheduling_from_callbacks(sim):
    log = []

    def outer():
        log.append(("outer", sim.now))
        sim.schedule(2, inner)

    def inner():
        log.append(("inner", sim.now))

    sim.schedule(1, outer)
    sim.run()
    assert log == [("outer", 1), ("inner", 3)]


def test_schedule_zero_delay_fires_same_cycle_after_current(sim):
    log = []

    def first():
        sim.schedule(0, log.append, "second")
        log.append("first")

    sim.schedule(1, first)
    sim.run()
    assert log == ["first", "second"]


def test_cancelled_event_does_not_fire(sim):
    log = []
    event = sim.schedule(5, log.append, "x")
    event.cancel()
    sim.run()
    assert log == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(5, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_double_cancel_decrements_live_count_once(sim):
    # A second cancel must be a pure no-op: were it to decrement the
    # kernel's live-event count again, pending_events() would go negative
    # and quiescence detection would lie.
    keep = sim.schedule(5, lambda: None)
    drop = sim.schedule(6, lambda: None)
    drop.cancel()
    drop.cancel()
    drop.cancel()
    assert sim.pending_events() == 1
    keep.cancel()
    assert sim.pending_events() == 0


def test_cancel_after_firing_is_noop(sim):
    log = []
    event = sim.schedule(3, log.append, "fired")
    sim.run()
    assert log == ["fired"]
    event.cancel()  # already fired: must not touch the live count
    assert sim.pending_events() == 0


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_post_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.post(-1, lambda: None)


def test_scheduling_in_past_rejected(sim):
    sim.schedule(5, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(2, lambda: None)


def test_run_max_cycles(sim):
    log = []
    sim.schedule(5, log.append, "early")
    sim.schedule(50, log.append, "late")
    sim.run(max_cycles=10)
    assert log == ["early"]
    assert sim.now == 10


def test_pending_events_counts_uncancelled(sim):
    keep = sim.schedule(5, lambda: None)
    drop = sim.schedule(6, lambda: None)
    drop.cancel()
    assert sim.pending_events() == 1
    keep.cancel()


def test_deterministic_interleaving_across_runs():
    def run_once(scheduler):
        sim = Simulator(scheduler=scheduler)
        log = []
        for i in range(20):
            sim.schedule(i % 3, log.append, i)
        sim.run()
        return log

    runs = [run_once(s) for s in scheduler_names() for _ in range(2)]
    assert all(run == runs[0] for run in runs)


def test_post_fires_like_schedule(sim):
    log = []
    sim.post(5, log.append, "b")
    sim.post(3, log.append, "a")
    sim.schedule(9, log.append, "c")
    assert sim.pending_events() == 3
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.pending_events() == 0


def test_post_returns_no_handle(sim):
    # Fire-and-forget: epoch posts are bare tuples with nothing to cancel.
    assert sim.post(1, lambda: None) is None


# --------------------------------------------------------------------------
# Calendar-ring mechanics: heap/ring merge ordering and stale handles.
# --------------------------------------------------------------------------

def test_far_event_fires_before_near_event_at_same_cycle():
    # An event lands in the heap only with a >= _WINDOW-cycle lead, i.e. it
    # was scheduled at an earlier simulated time -- lower seq -- than any
    # ring event for the same cycle.  The merge must honour that.
    for scheduler in scheduler_names():
        sim = Simulator(scheduler=scheduler)
        log = []
        target = 2 * _WINDOW
        sim.at(target, log.append, "far")  # heap in ring kernels

        def late_schedule():
            # At _WINDOW + 1, `target` is < _WINDOW away: ring path.
            sim.at(target, log.append, "near")

        sim.at(_WINDOW + 1, late_schedule)
        sim.run()
        assert log == ["far", "near"], scheduler


def test_events_crossing_the_window_boundary():
    # One event per delay straddling the ring/heap boundary, scheduled
    # shuffled; they must still fire in time order.
    delays = [_WINDOW - 1, _WINDOW, _WINDOW + 1, 1, 3 * _WINDOW, 0]
    for scheduler in scheduler_names():
        sim = Simulator(scheduler=scheduler)
        log = []
        for delay in delays:
            sim.post(delay, log.append, delay)
        sim.run()
        assert log == sorted(delays), scheduler


def test_run_until_jump_keeps_ring_consistent():
    # run_until far past the last event leaves now deep in virtual time;
    # the ring indices (cycle & mask) must still resolve correctly after.
    for scheduler in scheduler_names():
        sim = Simulator(scheduler=scheduler)
        log = []
        sim.post(3, log.append, "a")
        sim.run_until(10 * _WINDOW + 5)
        sim.post(2, log.append, "b")
        sim.post(_WINDOW + 2, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"], scheduler
        assert sim.now == 11 * _WINDOW + 7, scheduler


def test_stale_cancel_cannot_kill_recycled_event():
    # A schedule() handle cancelled after firing must stay a no-op while
    # later events are queued: it may neither cancel them nor touch the
    # live count.
    for scheduler in scheduler_names():
        sim = Simulator(scheduler=scheduler)
        log = []
        handle = sim.schedule(1, log.append, "a")
        sim.post(1, log.append, "b")
        sim.run()
        sim.post(3, log.append, "c")
        handle.cancel()
        sim.run()
        assert log == ["a", "b", "c"], scheduler
        assert sim.pending_events() == 0, scheduler
