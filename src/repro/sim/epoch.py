"""The ``"epoch"`` scheduler (the default): token-batched kernel for
flit-level runs.

FireSim's switch model advances whole latency-windows of link tokens per
step instead of simulating each flit crossing as its own event.  A
wormhole network cannot go that far -- per-flit credit returns and
cut-through buffer arrivals are *observable* at exact cycles, and the
parity suite holds the kernel to byte-identical metrics against ``heap``
-- but the same idea applies to the kernel *mechanics*: almost every
event in a saturated run is a link moving one flit of a committed packet
run, whose callback and ordering are fully determined when it is
scheduled.

Queue layout: almost every event in a flit-level run is scheduled a small
constant number of cycles ahead (``cycles_per_flit`` is 1-4, route delays
~1, NIC overheads a few cycles), so events landing within ``_WINDOW``
cycles of *now* go into a ring of per-cycle FIFO lists: scheduling is a
plain ``list.append`` and dispatch walks the list -- no heap sift, no
Python-level ``Event.__lt__`` calls.  Far events (retransmit timeouts,
barriers, fault plans, light-traffic compute gaps) fall back to a binary
heap and are merged back in when their cycle comes up.

On top of the ring the kernel saves work two ways:

* :meth:`EpochSimulator.post` enqueues fire-and-forget work as a bare
  ``(fn, args)`` tuple -- no ``Event`` object, no cancelled bookkeeping
  in the drain loop.  Cancellable events (:meth:`EpochSimulator.at` /
  ``schedule``) still allocate real Events and interleave with the tuples
  positionally: within a ring slot, list order *is* scheduling order.

* It advertises ``link_streams = True``, which lets
  :class:`repro.links.link.Link` open per-link *token runs*: while one
  packet has a VC to itself and no rival VC becomes eligible, the link
  enqueues one pre-bound arrival record per flit instead of a generic
  completion event, skips re-arbitration, bulk-claims NIC injection
  flits (``FlitFeeder.take_flits``) and defers NIC ejection body-flit
  deliveries (``FlitSink.accept_flits``).  Any rival activity truncates
  the run and falls back to the classic per-flit path, so the fast path
  is an optimisation of arbitration that would provably make the same
  choices -- never a change in behaviour.

Ordering across the heap and ring stores is still global ``(cycle, seq)``
order: a heap event for cycle *c* needed at least a ``_WINDOW``-cycle lead
to land in the heap, so it was scheduled at a strictly earlier simulated
time -- and therefore holds a strictly lower sequence number -- than every
ring entry for *c*.  Draining the heap before the ring at each cycle is
exactly seq order.  The parity matrix in
``tests/test_scheduler_parity.py`` enforces identity with ``heap`` across
every registered workload.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List, Optional

from .kernel import Event, Simulator
from .schedulers import register_scheduler

#: Span of the calendar ring in cycles (power of two so the slot index is a
#: mask).  Events scheduled fewer than ``_WINDOW`` cycles ahead take the
#: ring fast path; everything else falls back to the heap.
_WINDOW = 64
_MASK = _WINDOW - 1


@register_scheduler
class EpochSimulator(Simulator):
    """Calendar-ring kernel draining bare ``(fn, args)`` token records.

    Tuples carry no seq -- their position in the ring slot is their order
    -- so ``post`` is an append and the drain is an unpack.
    """

    name = "epoch"
    description = ("calendar ring draining bare (fn, args) token records, "
                   "with fused per-link flit runs (the default)")
    link_streams = True

    def __init__(self, scheduler: Optional[str] = None) -> None:
        super().__init__(scheduler)
        self._buckets: List[List] = [[] for _ in range(_WINDOW)]
        self._nbucket = 0  # entries (incl. cancelled husks) in the ring

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
        if cycle - self._now < _WINDOW:
            self._buckets[cycle & _MASK].append(event)
            self._nbucket += 1
        else:
            heapq.heappush(self._heap, event)
        return event

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling as a bare token record.

        Near events (the overwhelming majority: flit times, route delays,
        NIC overheads) append ``(fn, args)`` to the ring slot.  Far events
        become real Events in the heap, where ``(cycle, seq)`` comparison
        is needed for ordering.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._live += 1
        if delay < _WINDOW:
            self._buckets[(self._now + delay) & _MASK].append((fn, args))
            self._nbucket += 1
        else:
            event = Event(self._now + delay, self._seq, fn, args)
            event._sim = self
            self._seq += 1
            heapq.heappush(self._heap, event)

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest cycle holding a queued event (husks included), or None.

        With the ring non-empty the scan terminates within ``_WINDOW``
        slots by construction; in flit-saturated runs it terminates in one
        or two.
        """
        heap = self._heap
        if self._nbucket:
            buckets = self._buckets
            c = self._now
            while not buckets[c & _MASK]:
                c += 1
            if heap and heap[0].cycle < c:
                return heap[0].cycle
            return c
        if heap:
            return heap[0].cycle
        return None

    def _drain(self, bound: Optional[int]) -> None:
        """Per cycle: heap Events first (strictly lower seq, see the module
        docstring), then the ring slot positionally, unpacking token tuples
        inline.  Handlers can only add *ring* entries for the current
        cycle, so the heap drain cannot starve."""
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        profile = self._profile
        clock = time.perf_counter
        while True:
            c = self._next_event_cycle()
            if c is None or (bound is not None and c >= bound):
                return
            self._now = c
            while heap and heap[0].cycle == c:
                event = heappop(heap)
                if event.cancelled:
                    continue
                event._fired = True
                self._live -= 1
                if profile is None:
                    event.fn(*event.args)
                else:
                    start = clock()
                    event.fn(*event.args)
                    profile.note(event.fn, clock() - start)
                    profile.events += 1
            bucket = buckets[c & _MASK]
            i = 0
            while i < len(bucket):  # handlers may append same-cycle events
                entry = bucket[i]
                i += 1
                if type(entry) is tuple:
                    fn, args = entry
                elif entry.cancelled:
                    continue
                else:
                    entry._fired = True
                    fn = entry.fn
                    args = entry.args
                self._live -= 1
                if profile is None:
                    fn(*args)
                else:
                    start = clock()
                    fn(*args)
                    profile.note(fn, clock() - start)
                    profile.events += 1
            self._nbucket -= i
            del bucket[:]
