"""Deterministic discrete-event simulation kernel.

The paper's simulator (Section 3) steps every object synchronously, cycle by
cycle.  We keep the same *observable* semantics -- all state changes happen at
integer cycle boundaries, and simultaneous events fire in a deterministic
order -- but use an event queue so idle components cost nothing.  Events that
are scheduled for the same cycle fire in the order they were scheduled, which
makes every run bit-for-bit reproducible for a given seed.

Scheduler implementations are pluggable (see :mod:`repro.sim.schedulers`);
this module holds the shared :class:`Event`/:class:`Simulator` machinery and
registers the reference scheduler:

``"heap"``
    A single binary heap keyed by ``(cycle, seq)``.  Kept intact as the
    measured baseline (``repro perf`` compares against it) and as the
    executable specification the parity tests diff the fast path against.

:mod:`repro.sim.epoch` registers ``"epoch"`` (the default), the fast path:
a per-cycle calendar ring of bare ``(fn, args)`` token records plus fused
per-link flit runs.

Each kernel has exactly one event-drain loop (``_drain``).  Self-profiling
(:meth:`Simulator.enable_profiling`) measures where the *simulator's own*
wall-clock time goes: events executed per second and cumulative time per
handler type.  It exists so performance regressions in the simulator become
a measured number run-to-run rather than a feeling; in the drain loop it is
one ``profile is None`` branch around the handler call, so an un-profiled
run pays a single pointer compare per event.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Optional

from .schedulers import (DEFAULT_SCHEDULER, Scheduler, register_scheduler,
                         resolve_scheduler)


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is O(1): the event is flagged and skipped when popped.
    """

    __slots__ = ("cycle", "seq", "fn", "args", "cancelled", "_fired", "_sim")

    def __init__(self, cycle: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.cycle = cycle
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._fired = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once, and
        safe to call on an event that has already fired (a no-op)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event @{self.cycle} #{self.seq}{state} {self.fn!r}>"


class KernelProfile:
    """Wall-clock accounting of the event loop (simulator self-profiling).

    ``by_handler`` maps a handler's qualified name (e.g.
    ``NifdyNIC._process_ack``) to ``[count, seconds]``; ``loop_seconds``
    is total time spent inside the run loop, so ``events_per_sec`` includes
    queue overhead -- the honest throughput figure for comparing runs.
    """

    def __init__(self) -> None:
        self.events = 0
        self.loop_seconds = 0.0
        self.by_handler: Dict[str, List] = {}

    def note(self, fn: Callable, seconds: float) -> None:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        entry = self.by_handler.get(name)
        if entry is None:
            self.by_handler[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    @property
    def events_per_sec(self) -> float:
        if self.loop_seconds <= 0.0:
            return 0.0
        return self.events / self.loop_seconds

    def table(self, top: Optional[int] = None):
        """``(handler, count, seconds, us_per_event)`` rows, costliest first."""
        rows = [
            (name, count, seconds, 1e6 * seconds / count if count else 0.0)
            for name, (count, seconds) in self.by_handler.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows[:top] if top is not None else rows

    def to_dict(self) -> Dict:
        return {
            "events": self.events,
            "loop_seconds": self.loop_seconds,
            "events_per_sec": self.events_per_sec,
            "handlers": {
                name: {
                    "count": count,
                    "seconds": seconds,
                    "us_per_event": 1e6 * seconds / count if count else 0.0,
                }
                for name, (count, seconds) in self.by_handler.items()
            },
        }

    def format(self, top: int = 12) -> str:
        lines = [
            f"self-profile: {self.events:,} events in {self.loop_seconds:.3f}s "
            f"wall ({self.events_per_sec:,.0f} events/sec)"
        ]
        lines.append(f"  {'handler':44s}{'count':>10s}{'seconds':>10s}{'us/ev':>8s}")
        for name, count, seconds, us in self.table(top):
            lines.append(f"  {name[:44]:44s}{count:>10,}{seconds:>10.3f}{us:>8.1f}")
        return "\n".join(lines)


class Simulator(Scheduler):
    """Event-driven simulator with cycle-granularity virtual time.

    ``Simulator(scheduler=name)`` dispatches construction through the
    scheduler registry: it returns an instance of whichever
    :class:`~repro.sim.schedulers.Scheduler` subclass is registered under
    ``name`` (default :data:`~repro.sim.schedulers.DEFAULT_SCHEDULER`).
    All implementations fire events in identical ``(cycle, seq)`` order;
    they differ only in queue mechanics and speed.
    """

    def __new__(cls, scheduler: Optional[str] = None):
        if cls is Simulator:
            name = DEFAULT_SCHEDULER if scheduler is None else scheduler
            return object.__new__(resolve_scheduler(name))
        return object.__new__(cls)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        if scheduler is not None and scheduler != self.name:
            raise ValueError(
                f"scheduler mismatch: {type(self).__name__} implements "
                f"{self.name!r}, not {scheduler!r}"
            )
        self._now = 0
        self._seq = 0
        self._heap: List[Event] = []
        self._live = 0
        self._profile: Optional[KernelProfile] = None

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Which event-queue implementation this kernel runs on."""
        return self.name

    @property
    def profile(self) -> Optional[KernelProfile]:
        """The active :class:`KernelProfile`, if profiling is enabled."""
        return self._profile

    def enable_profiling(self) -> KernelProfile:
        """Turn on per-handler timing in the drain loop.  Idempotent;
        returns the profile (which accumulates across run calls)."""
        if self._profile is None:
            self._profile = KernelProfile()
        return self._profile

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.at(self._now + delay, fn, *args)

    def run_until(self, cycle: int) -> None:
        """Run all events with timestamp strictly less than ``cycle``.

        Afterwards ``self.now == cycle`` (unless the event queue drained
        earlier, in which case ``now`` still advances to ``cycle``).
        """
        self._run(cycle)
        self._now = max(self._now, cycle)

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run until the event queue is empty (or ``max_cycles`` elapses)."""
        if max_cycles is not None:
            self.run_until(self._now + max_cycles)
        else:
            self._run(None)

    def _run(self, bound: Optional[int]) -> None:
        """:meth:`_drain` plus the profile's whole-loop wall clock."""
        profile = self._profile
        loop_start = time.perf_counter()
        try:
            self._drain(bound)
        finally:
            if profile is not None:
                profile.loop_seconds += time.perf_counter() - loop_start

    def _drain(self, bound: Optional[int]) -> None:
        """Fire events in ``(cycle, seq)`` order until the queue is empty
        or the next event is at or after ``bound`` (None: no bound)."""
        raise NotImplementedError

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1): a live
        count is maintained on schedule/cancel/pop (the liveness watchdog
        polls this every check interval)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator {self.name} now={self._now} pending={self._live}>"


class HeapSimulator(Simulator):
    """The binary-heap kernel: the preserved, measured baseline."""

    name = "heap"
    description = ("single binary heap keyed by (cycle, seq); the slow, "
                   "obviously-correct reference implementation")

    def at(self, cycle: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute ``cycle``."""
        if cycle < self._now:
            raise ValueError(
                f"cannot schedule at cycle {cycle}; current cycle is {self._now}"
            )
        event = Event(cycle, self._seq, fn, args)
        event._sim = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`.  The heap kernel is the
        preserved baseline: one fresh Event per call, exactly as the
        original kernel behaved."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.at(self._now + delay, fn, *args)

    def _drain(self, bound: Optional[int]) -> None:
        heap = self._heap
        heappop = heapq.heappop
        profile = self._profile
        clock = time.perf_counter
        while heap and (bound is None or heap[0].cycle < bound):
            event = heappop(heap)
            if event.cancelled:
                continue
            event._fired = True
            self._live -= 1
            self._now = event.cycle
            if profile is None:
                event.fn(*event.args)
            else:
                start = clock()
                event.fn(*event.args)
                profile.note(event.fn, clock() - start)
                profile.events += 1


register_scheduler(HeapSimulator)
