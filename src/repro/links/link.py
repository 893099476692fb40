"""Physical links with virtual channels and credit-based flow control.

A :class:`Link` is a unidirectional channel between an upstream *feeder*
(a router input unit or a NIC injection port) and a downstream *sink*
(a router input port or a NIC ejection port).  Links are the only place
bandwidth is spent: one flit crosses the wire every ``cycles_per_flit``
cycles, where a flit is one 32-bit word and the paper's links are 8 bits
wide (4 bits for the CM-5 network).

Virtual channels share the physical wire flit-by-flit (demand multiplexing,
round-robin among VCs that have both a flit ready and a downstream credit).
Each VC is *allocated* to one packet at a time -- from the cycle its head
flit is granted until its tail flit has been delivered into the downstream
buffer -- which gives wormhole semantics: a blocked packet keeps its chain
of VCs and buffers, producing the secondary blocking the paper studies.

The request/reply logical networks (Section 3) are carried as disjoint VC
groups on the same link (demand multiplexed).  The CM-5's strictly
time-multiplexed networks are modelled by the network builder as two
half-bandwidth links instead.

Lossy-network support (Section 6.2): a link may be given a ``drop_prob``;
the drop decision is made once per packet when its head flit is granted,
the packet's flits then consume wire bandwidth but are never delivered.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..obs.events import EventKind
from ..packets import FLIT_BYTES, Packet
from ..sim import Simulator

#: Round-robin visit orders shared by every link with the same VC count:
#: ``_rr_orders(n)[s]`` is ``(s, s+1, ..., n-1, 0, ..., s-1)``.  Precomputing
#: them removes the per-candidate modulo from the per-flit arbitration loop.
_RR_ORDER_CACHE = {}


def _rr_orders(n: int):
    orders = _RR_ORDER_CACHE.get(n)
    if orders is None:
        orders = tuple(
            tuple((start + i) % n for i in range(n)) for start in range(n)
        )
        _RR_ORDER_CACHE[n] = orders
    return orders


class FlitFeeder:
    """Upstream side of a link: supplies flits for an allocated VC.

    ``has_flit_ready`` / ``take_flit`` are the required single-flit
    protocol.  The remaining methods are the *optional* bulk protocol
    used by the epoch kernel's link token runs (see
    ``docs/architecture.md``); the defaults fall back to single-flit
    behaviour, so a feeder that implements only the required pair works
    under every scheduler.
    """

    def has_flit_ready(self, link: "Link", vc: int) -> bool:
        raise NotImplementedError

    def take_flit(self, link: "Link", vc: int):
        """Remove and return ``(packet, is_head, is_tail)`` for this VC."""
        raise NotImplementedError

    # ------------------------------------------------- optional bulk protocol
    def take_flits(self, link: "Link", vc: int, max_flits: int):
        """Remove and return up to ``max_flits`` flits as a list of
        ``(packet, is_head, is_tail)`` tuples.

        Stops early when the feeder runs out of ready flits or after a
        tail flit (a bulk take never spans packets).  The default simply
        loops :meth:`take_flit`; feeders whose per-flit take has no
        externally observable side effects (the NIC injection side)
        override it with a counter bump.
        """
        flits = []
        while max_flits > 0 and self.has_flit_ready(link, vc):
            flit = self.take_flit(link, vc)
            flits.append(flit)
            max_flits -= 1
            if flit[2]:
                break
        return flits

    def untake_flits(self, link: "Link", vc: int, count: int) -> None:
        """Give back ``count`` flits claimed by :meth:`take_flits`.

        Only required of feeders whose :meth:`flit_run_handle` invites
        speculative claims (``("claim", n)``): when a token run truncates
        early (rival VC activity), the link returns the unused claim so
        the feeder's state is exactly what the classic per-flit path
        expects.
        """
        raise NotImplementedError

    def flit_run_handle(self, link: "Link", vc: int):
        """Describe how the epoch kernel may fuse a multi-flit run on
        ``vc``, or ``None`` (the default) for the generic per-flit path.

        Two cooperation modes::

            ("unit", transit, credit_link, credit_vc)
                Router input units: the link may read
                ``transit.flits_buffered`` / bump ``flits_forwarded``
                directly and return each flit's credit on
                ``credit_link.return_credit(credit_vc)`` -- valid only
                while the transit stays at the head of the unit's queue,
                which the run guarantees (it ends at the packet's tail).

            ("claim", remaining)
                NIC injection streams: ``remaining`` flits of the current
                packet are still unsent and may be bulk-claimed via
                :meth:`take_flits` (body flits have no observable side
                effects until the tail).
        """
        return None


class FlitSink:
    """Downstream side of a link: receives flits into a bounded buffer.

    ``accept_flit`` is the required single-flit protocol; the rest is the
    optional bulk protocol (single-flit fallbacks, see
    ``docs/architecture.md``).
    """

    #: True when body-flit deliveries are unobservable until the packet's
    #: tail arrives (NIC ejection assembly counters): the epoch kernel may
    #: then defer them and deliver in bulk via :meth:`accept_flits`.
    #: Router sinks must leave this False -- a buffered flit is immediately
    #: observable (cut-through forwarding, credit accounting, occupancy).
    passive_flit_sink = False

    def accept_flit(
        self, port: int, vc: int, packet: Packet, is_head: bool, is_tail: bool
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------- optional bulk protocol
    def accept_flits(
        self, port: int, vc: int, packet: Packet, count: int,
        first_is_head: bool = False,
    ) -> None:
        """Deliver ``count`` consecutive non-tail flits of ``packet``.

        The tail always arrives through :meth:`accept_flit` (it carries
        the packet-completion side effects).  The default unrolls into
        single-flit calls.
        """
        for i in range(count):
            self.accept_flit(port, vc, packet, first_is_head and i == 0, False)

    def flit_target(self, port: int, vc: int):
        """A per-``(port, vc)`` accept callable ``(packet, is_head,
        is_tail) -> None``, or ``None`` (the default).  Lets the epoch
        kernel's token runs skip the per-flit port/VC dispatch; the
        callable must be equivalent to :meth:`accept_flit` with ``port``
        and ``vc`` pre-bound.
        """
        return None


class Link:
    """One unidirectional physical channel."""

    __slots__ = (
        "sim",
        "name",
        "width_bytes",
        "cycles_per_flit",
        "vc_count",
        "net_of_vc",
        "sink",
        "sink_port",
        "_owners",
        "_feeders",
        "_vcs_by_net",
        "_credits",
        "_dropping",
        "_vc_capacity",
        "_busy",
        "_rr",
        "_rr_orders",
        "_post",
        "_complete_cb",
        "_accept_cb",
        # Epoch-kernel token runs (see docs/architecture.md): all `_s_*`
        # state describes the currently open multi-flit run, if any.
        "_ep",
        "_s_vc",
        "_s_clean",
        "_s_take",
        "_s_left",
        "_s_packet",
        "_s_head",
        "_s_dropping",
        "_s_defer",
        "_s_deferred",
        "_s_deferred_head",
        "_s_transit",
        "_s_ret_link",
        "_s_ret_vc",
        "_s_accept",
        "_s_step_cb",
        "_alloc_waiters",
        "drop_prob",
        "_drop_rng",
        "fault_drop_prob",
        "_fault_drop_rng",
        "_fault_drop_data",
        "_fault_drop_acks",
        "failed",
        "_last_start",
        "flits_carried",
        "packets_carried",
        "packets_dropped",
        "busy_cycles",
        "obs",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        width_bytes: int,
        vc_count: int,
        vc_buffer_flits: int,
        sink: Optional[FlitSink],
        sink_port: int,
        net_of_vc: Optional[Sequence[int]] = None,
        drop_prob: float = 0.0,
        drop_rng=None,
        cycles_per_flit: Optional[int] = None,
    ) -> None:
        if width_bytes <= 0 or vc_count <= 0 or vc_buffer_flits <= 0:
            raise ValueError("link parameters must be positive")
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1], got {drop_prob}"
            )
        if drop_prob > 0.0 and drop_rng is None:
            # Fail at construction, not at the first head flit: a lossy
            # link needs its random stream the same way set_fault_drop does.
            raise ValueError("a lossy link (drop_prob > 0) needs a drop_rng")
        self.sim = sim
        self.name = name
        self.width_bytes = width_bytes
        if cycles_per_flit is not None:
            # Explicit override: used for sub-byte widths (the CM-5's 4-bit
            # links) and for its strictly time-multiplexed logical networks.
            self.cycles_per_flit = cycles_per_flit
        else:
            self.cycles_per_flit = max(1, -(-FLIT_BYTES // width_bytes))
        self.vc_count = vc_count
        self.net_of_vc = list(net_of_vc) if net_of_vc is not None else [0] * vc_count
        if len(self.net_of_vc) != vc_count:
            raise ValueError("net_of_vc must have one entry per VC")
        self.sink = sink
        self.sink_port = sink_port
        self._owners: List[Optional[Packet]] = [None] * vc_count
        self._feeders: List[Optional[FlitFeeder]] = [None] * vc_count
        self._vcs_by_net = {}
        self._credits = [vc_buffer_flits] * vc_count
        self._dropping = [False] * vc_count
        self._vc_capacity = vc_buffer_flits
        self._busy = False
        self._rr = 0
        self._rr_orders = _rr_orders(vc_count)
        # Cached bound methods: the _kick/_complete pair runs once per flit
        # (the hottest path in the whole simulator), and an attribute lookup
        # on `self`/`sim` allocates a fresh bound-method object every time.
        self._post = sim.post
        self._complete_cb = self._complete
        self._accept_cb = sink.accept_flit if sink is not None else None
        # Token runs are an epoch-kernel capability: schedulers advertise it
        # via the `link_streams` flag so heap keeps the classic
        # flit-by-flit event shape (the parity baseline).
        self._ep = bool(getattr(sim, "link_streams", False))
        self._s_vc = -1          # VC of the open run; -1 = no run
        self._s_clean = False    # False once any rival-VC state changed
        self._s_take = 0         # 0 generic, 1 input-unit inline, 2 claimed
        self._s_left = -2        # ungranted flits incl. tail (-2 = unknown)
        self._s_packet: Optional[Packet] = None
        self._s_head = False     # next delivery is the packet's head flit
        self._s_dropping = False
        self._s_defer = False    # sink is passive: batch body deliveries
        self._s_deferred = 0
        self._s_deferred_head = False
        self._s_transit = None   # mode-1 cooperation state
        self._s_ret_link: Optional["Link"] = None
        self._s_ret_vc = 0
        self._s_accept = None    # mode flit_target fast accept, if any
        self._s_step_cb = self._stream_step
        self._alloc_waiters: List[Callable[[], None]] = []
        self.drop_prob = drop_prob
        self._drop_rng = drop_rng
        self.fault_drop_prob = 0.0
        self._fault_drop_rng = None
        self._fault_drop_data = True
        self._fault_drop_acks = True
        self.failed = False
        #: Cycle the wire last started a flit transfer; None = never used.
        #: A dedicated sentinel (not a stats counter) so resetting or
        #: sharing the counters can neither blind the overclock guard nor
        #: make it fire spuriously.
        self._last_start: Optional[int] = None
        # statistics
        self.flits_carried = 0
        self.packets_carried = 0
        self.packets_dropped = 0
        self.busy_cycles = 0
        #: Protocol event bus; None = un-instrumented (the common case).
        self.obs = None

    def set_sink(self, sink: FlitSink, sink_port: int = 0) -> None:
        """Bind the downstream consumer (used for NIC ejection links, which
        are created when the topology is built, before NICs exist)."""
        if self._s_vc >= 0:
            self._close_stream()
        self.sink = sink
        self.sink_port = sink_port
        self._accept_cb = sink.accept_flit

    # ------------------------------------------------------------------ VCs
    def vcs_for_net(self, net: int) -> List[int]:
        """Indices of VCs belonging to logical network ``net``.

        Cached (the VC layout is fixed at construction); callers treat the
        result as read-only.
        """
        group = self._vcs_by_net.get(net)
        if group is None:
            group = [i for i, n in enumerate(self.net_of_vc) if n == net]
            self._vcs_by_net[net] = group
        return group

    def vc_free(self, vc: int) -> bool:
        return self._owners[vc] is None

    def owner(self, vc: int) -> Optional[Packet]:
        return self._owners[vc]

    def fail(self) -> None:
        """Take this link out of service (Section 1.1: network faults).

        A failed link accepts no new packets; routes with alternative
        candidates (fat-tree up-paths, multibutterfly copies, adaptive mesh
        VCs) flow around it.  Failing a link that is some pair's only path
        partitions the network for that pair -- the caller's responsibility.
        Packets already holding the link finish crossing it.
        """
        self.failed = True

    def repair(self) -> None:
        """Return a failed link to service (the other half of a fault event).

        Upstream feeders that found every VC refused while the link was down
        registered alloc waiters; firing them here lets blocked routers and
        NICs re-try immediately instead of waiting for an unrelated VC
        release.  Safe to call on a healthy link (no-op beyond the kick).
        """
        self.failed = False
        if self._alloc_waiters:
            waiters = self._alloc_waiters
            self._alloc_waiters = []
            for fn in waiters:
                fn()
        self._kick()

    def set_fault_drop(
        self, prob: float, rng=None, data: bool = True, acks: bool = True
    ) -> None:
        """Start a transient loss episode on this link.

        Unlike the constructor's static ``drop_prob`` (which models a
        permanently unreliable fabric and only ever discards data packets),
        a fault-injected burst can also claim acks -- the ack-network-only
        loss scenario that exercises the duplicate-elimination path.
        """
        if not 0.0 <= prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.fault_drop_prob = prob
        if rng is not None:
            self._fault_drop_rng = rng
        elif self._fault_drop_rng is None:
            self._fault_drop_rng = self._drop_rng
        if prob > 0.0 and self._fault_drop_rng is None:
            raise ValueError("a loss burst needs a random stream")
        self._fault_drop_data = data
        self._fault_drop_acks = acks

    def clear_fault_drop(self) -> None:
        """End a transient loss episode (packets in flight are unaffected)."""
        self.fault_drop_prob = 0.0

    def _decide_drop(self, packet: Packet) -> bool:
        if self.drop_prob > 0.0 and packet.is_data:
            if self._drop_rng.random() < self.drop_prob:
                return True
        if self.fault_drop_prob > 0.0:
            applies = self._fault_drop_data if packet.is_data else self._fault_drop_acks
            if applies and self._fault_drop_rng.random() < self.fault_drop_prob:
                return True
        return False

    def allocate_vc(
        self, packet: Packet, feeder: FlitFeeder, candidates: Sequence[int]
    ) -> Optional[int]:
        """Try to allocate one of ``candidates`` to ``packet``.

        Returns the VC index, or None if all candidates are held by other
        packets.  The caller may register with :meth:`add_alloc_waiter` to be
        re-tried when a VC frees.
        """
        if self.failed:
            return None
        for vc in candidates:
            if self._owners[vc] is None:
                self._owners[vc] = packet
                self._feeders[vc] = feeder
                self._dropping[vc] = self._decide_drop(packet)
                if vc != self._s_vc:
                    # A rival VC gained a packet: any open token run must
                    # fall back to per-flit arbitration from here on.
                    self._s_clean = False
                return vc
        return None

    def add_alloc_waiter(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` next time a VC on this link is released."""
        self._alloc_waiters.append(fn)

    # ------------------------------------------------------------ data path
    def notify_flit_ready(self, vc: int) -> None:
        """Feeder signals that ``vc`` may now have work; try to transfer."""
        if vc != self._s_vc:
            self._s_clean = False
        self._kick()

    def return_credit(self, vc: int) -> None:
        """Sink signals that one flit left the downstream buffer of ``vc``."""
        if self._credits[vc] >= self._vc_capacity:
            raise RuntimeError(f"{self.name}: credit overflow on VC {vc}")
        self._credits[vc] += 1
        if vc != self._s_vc:
            self._s_clean = False
        self._kick()

    def _kick(self) -> None:
        if self._busy:
            return
        s_vc = self._s_vc
        if s_vc >= 0:
            if self._s_clean:
                # Token-run fast path: no rival VC became eligible since the
                # run opened, so classic round-robin arbitration (which would
                # start at s_vc + 1, find every rival ineligible, and wrap
                # back to s_vc) is provably redundant.  Any eligibility
                # change flows through notify_flit_ready / return_credit /
                # allocate_vc, each of which clears _s_clean first.
                take = self._s_take
                if take and self._s_left <= 1:
                    # Only the tail remains: grant it through the classic
                    # take so packet-completion side effects stay per-flit.
                    take = 0
                credits = self._credits
                if take == 1:
                    if self._s_transit.flits_buffered <= 0:
                        return
                elif take == 0:
                    if not self._feeders[s_vc].has_flit_ready(self, s_vc):
                        return
                if not self._s_dropping:
                    if credits[s_vc] <= 0:
                        return
                    credits[s_vc] -= 1
                self._busy = True
                now = self.sim.now
                last = self._last_start
                if last is not None and now - last < self.cycles_per_flit:
                    raise RuntimeError(
                        f"{self.name}: wire overclocked (double transfer)"
                    )
                self._last_start = now
                self.flits_carried += 1
                self.busy_cycles += self.cycles_per_flit
                if take == 1:
                    transit = self._s_transit
                    transit.flits_buffered -= 1
                    transit.flits_forwarded += 1
                    self._s_ret_link.return_credit(self._s_ret_vc)
                elif take == 0:
                    packet, is_head, is_tail = self._feeders[s_vc].take_flit(
                        self, s_vc
                    )
                    if is_tail:
                        self._close_stream()
                        self._post(
                            self.cycles_per_flit, self._complete_cb, s_vc,
                            packet, is_head, True,
                        )
                        return
                self._s_left -= 1
                self._post(self.cycles_per_flit, self._s_step_cb)
                return
            self._close_stream()
        feeders = self._feeders
        dropping_flags = self._dropping
        credits = self._credits
        if self.vc_count == 1:
            # Single-VC fast path (every mesh/butterfly wire): no
            # arbitration loop, no round-robin pointer to maintain.
            feeder = feeders[0]
            if (
                feeder is None
                or (credits[0] <= 0 and not dropping_flags[0])
                or not feeder.has_flit_ready(self, 0)
            ):
                return
            chosen = 0
        else:
            chosen = -1
            for vc in self._rr_orders[self._rr]:
                feeder = feeders[vc]
                if feeder is None:
                    continue
                if credits[vc] <= 0 and not dropping_flags[vc]:
                    continue
                if feeder.has_flit_ready(self, vc):
                    chosen = vc
                    break
            if chosen < 0:
                return
            self._rr = chosen + 1 if chosen + 1 < self.vc_count else 0
        dropping = dropping_flags[chosen]
        if not dropping:
            credits[chosen] -= 1
        # Mark the wire busy BEFORE taking the flit: take_flit returns a
        # credit upstream, and on cyclic topologies that credit-return chain
        # can run all the way around a ring and re-enter this link's _kick
        # within the same call stack.  Claiming the wire first makes the
        # re-entry a no-op instead of a double transfer.
        self._busy = True
        now = self.sim.now
        last = self._last_start
        if last is not None and now - last < self.cycles_per_flit:
            raise RuntimeError(f"{self.name}: wire overclocked (double transfer)")
        self._last_start = now
        packet, is_head, is_tail = feeder.take_flit(self, chosen)
        self.flits_carried += 1
        self.busy_cycles += self.cycles_per_flit
        if (
            self._ep
            and not is_tail
            and self._maybe_stream(chosen, feeder, packet, is_head, dropping)
        ):
            return
        self._post(
            self.cycles_per_flit, self._complete_cb, chosen, packet, is_head,
            is_tail,
        )

    def _maybe_stream(
        self, vc: int, feeder: FlitFeeder, packet: Packet, is_head: bool,
        dropping: bool,
    ) -> bool:
        """After a classic grant of a non-tail flit under the epoch kernel,
        try to open a token run on ``vc``.

        A run may open only when no rival VC is currently eligible --
        then, and for as long as no rival state changes (``_s_clean``),
        every subsequent arbitration would provably re-pick ``vc``, so
        flits flow through :meth:`_stream_step` records instead of full
        ``_complete`` events.  Returns True when the granted flit's
        completion has been scheduled as a run step (the caller skips the
        classic post).
        """
        sink = self.sink
        if sink is None:
            return False
        credits = self._credits
        feeders = self._feeders
        dropping_flags = self._dropping
        for rival in range(self.vc_count):
            if rival == vc:
                continue
            rival_feeder = feeders[rival]
            if rival_feeder is None:
                continue
            if credits[rival] <= 0 and not dropping_flags[rival]:
                continue
            if rival_feeder.has_flit_ready(self, rival):
                return False
        take = 0
        left = -2
        handle = getattr(feeder, "flit_run_handle", None)
        info = handle(self, vc) if handle is not None else None
        if info is not None:
            kind = info[0]
            if kind == "unit":
                left = packet.flits - info[1].flits_forwarded
                if left >= 2:
                    take = 1
                    self._s_transit = info[1]
                    self._s_ret_link = info[2]
                    self._s_ret_vc = info[3]
            elif kind == "claim":
                left = info[1]
                if left >= 2:
                    take = 2
                    # Claim every body flit up front; the tail stays with
                    # the feeder and a truncated run hands the surplus back
                    # (untake_flits) before classic arbitration resumes.
                    feeder.take_flits(self, vc, left - 1)
            if take == 0:
                left = -2
        self._s_vc = vc
        self._s_clean = True
        self._s_take = take
        self._s_left = left
        self._s_packet = packet
        self._s_head = is_head
        self._s_dropping = dropping
        self._s_deferred = 0
        self._s_deferred_head = False
        if not dropping and getattr(sink, "passive_flit_sink", False):
            self._s_defer = True
            self._s_accept = None
        else:
            self._s_defer = False
            target = getattr(sink, "flit_target", None)
            self._s_accept = (
                target(self.sink_port, vc) if target is not None else None
            )
        self._post(self.cycles_per_flit, self._s_step_cb)
        return True

    def _stream_step(self) -> None:
        """Arrival of one in-run flit (the epoch kernel's token record).

        Mirrors the non-tail half of :meth:`_complete` exactly: free the
        wire, deliver (or defer) the flit, then kick.  The tail never
        arrives here -- the fast path hands it back to the classic grant.

        The head flag is consumed *before* delivery: delivering can re-enter
        this link (downstream credit return -> :meth:`_kick`), close this
        run and open the next packet's, whose fresh ``_s_head`` must
        survive.
        """
        self._busy = False
        head = self._s_head
        self._s_head = False
        if not self._s_dropping:
            if self._s_defer:
                if not self._s_deferred:
                    self._s_deferred_head = head
                self._s_deferred += 1
            else:
                accept = self._s_accept
                if accept is not None:
                    accept(self._s_packet, head, False)
                else:
                    self._accept_cb(
                        self.sink_port, self._s_vc, self._s_packet, head,
                        False,
                    )
        self._kick()

    def _close_stream(self) -> None:
        """End the open token run, restoring exact classic state: hand
        back unclaimed body flits and flush any deferred deliveries."""
        vc = self._s_vc
        self._s_vc = -1
        if self._s_take == 2 and self._s_left > 1:
            self._feeders[vc].untake_flits(self, vc, self._s_left - 1)
        if self._s_deferred:
            count = self._s_deferred
            self._s_deferred = 0
            self.sink.accept_flits(
                self.sink_port, vc, self._s_packet, count,
                self._s_deferred_head,
            )
        self._s_packet = None
        self._s_transit = None
        self._s_ret_link = None
        self._s_accept = None

    def _complete(self, vc: int, packet: Packet, is_head: bool, is_tail: bool) -> None:
        self._busy = False
        dropping = self._dropping[vc]
        if is_tail:
            # Release the VC before delivering the tail flit: delivery may
            # trigger the downstream packet to advance and a waiter to want
            # this VC in the same cycle.
            self._owners[vc] = None
            self._feeders[vc] = None
            self._dropping[vc] = False
            self.packets_carried += 1
            if dropping:
                self.packets_dropped += 1
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.LINK_DROP, -1,
                        uid=packet.uid, src=packet.src, dst=packet.dst,
                        info=self.name,
                    )
            if self._alloc_waiters:
                waiters = self._alloc_waiters
                self._alloc_waiters = []
                for fn in waiters:
                    fn()
        if not dropping:
            self._accept_cb(self.sink_port, vc, packet, is_head, is_tail)
        self._kick()

    # ------------------------------------------------------------- metrics
    def utilization(self, elapsed_cycles: int) -> float:
        """Ratio of busy wire-cycles to elapsed cycles.

        Deliberately NOT clamped to 1.0: a value above 1.0 means the wire
        was charged for more flit-time than physically existed -- exactly
        the double-transfer accounting bug the overclock guard exists to
        catch -- and clamping would silently mask it.  Display code that
        wants a tidy percentage clamps for itself (see
        :func:`repro.metrics.link_utilization_report`).
        """
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_cycles / elapsed_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} vcs={self.vc_count} busy={self._busy}>"
