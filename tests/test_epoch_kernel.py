"""Epoch kernel and scheduler-registry tests.

The epoch kernel replaces per-flit ``Event`` allocation with bare
``(fn, args)`` token records in the calendar ring and lets links fuse
multi-flit token runs.  These tests pin down the parts generic kernel
semantics (tests/test_kernel.py, parametrized over every registered
scheduler) and whole-run parity (tests/test_scheduler_parity.py) don't
reach directly: registry behaviour, heap/ring interleaving, cancellation
alongside token records, mid-run faults during token runs, and the
bulk feeder/sink protocol contracts.
"""

import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.faults import FaultPlan
from repro.links import FlitFeeder, FlitSink, Link
from repro.obs import Observability, metrics_json
from repro.packets import Packet, PacketKind
from repro.sim import (
    DEFAULT_SCHEDULER,
    Scheduler,
    Simulator,
    register_scheduler,
    resolve_scheduler,
    scheduler_descriptions,
    scheduler_names,
)
from repro.sim.epoch import _WINDOW, EpochSimulator
from repro.sim.kernel import HeapSimulator
from repro.traffic import TrafficSpec


# ------------------------------------------------------------------ registry
class TestSchedulerRegistry:
    def test_registered_names_and_order(self):
        # The reference first, the fast path after it; nothing else.
        assert scheduler_names() == ("heap", "epoch")

    def test_default_is_registered(self):
        assert DEFAULT_SCHEDULER == "epoch"
        assert DEFAULT_SCHEDULER in scheduler_names()

    def test_resolve(self):
        assert resolve_scheduler("heap") is HeapSimulator
        assert resolve_scheduler("epoch") is EpochSimulator

    def test_resolve_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            resolve_scheduler("fifo")

    def test_retired_bucket_kernel_is_unknown(self):
        # No alias: a spec naming the deleted calendar-queue kernel fails
        # validation instead of silently running on another kernel.
        with pytest.raises(ValueError, match="unknown scheduler"):
            Simulator("bucket")
        with pytest.raises(ValueError, match="unknown kernel"):
            ExperimentSpec(network="fattree", traffic=TrafficSpec("heavy"),
                           kernel="bucket")

    def test_reregistering_same_class_is_noop(self):
        before = scheduler_names()
        register_scheduler(EpochSimulator)
        assert scheduler_names() == before

    def test_name_collision_rejected(self):
        class Impostor(Scheduler):
            name = "epoch"

        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(Impostor)

    def test_descriptions_cover_every_kernel(self):
        desc = scheduler_descriptions()
        assert set(desc) == set(scheduler_names())
        assert all(desc.values())

    def test_simulator_dispatches_on_name(self):
        assert type(Simulator()) is resolve_scheduler(DEFAULT_SCHEDULER)
        assert type(Simulator("heap")) is HeapSimulator
        assert type(Simulator("epoch")) is EpochSimulator
        assert Simulator("epoch").scheduler == "epoch"

    def test_simulator_rejects_unknown(self):
        with pytest.raises(ValueError):
            Simulator("fifo")

    def test_link_streams_capability_flag(self):
        assert EpochSimulator.link_streams is True
        assert not getattr(HeapSimulator, "link_streams", False)

    def test_subclass_constructs_directly(self):
        # Bypassing the registry dispatch must still work (tests do this).
        assert type(EpochSimulator()) is EpochSimulator


# ------------------------------------------------- epoch ordering semantics
class TestEpochOrdering:
    def test_ring_tokens_fire_in_post_order(self):
        sim = Simulator("epoch")
        fired = []
        for i in range(8):
            sim.post(3, fired.append, i)
        sim.run_until(4)
        assert fired == list(range(8))

    def test_heap_events_drain_before_ring_tokens(self):
        # A far event (scheduled beyond the ring window, so it lives in the
        # heap) must fire before same-cycle ring tokens: it was necessarily
        # scheduled earlier, hence has a lower global sequence number.
        sim = Simulator("epoch")
        fired = []
        horizon = _WINDOW + 5
        sim.post(horizon, fired.append, "far")

        def late_post():
            sim.post(1, fired.append, "near")

        sim.post(horizon - 1, late_post)
        sim.run_until(horizon + 1)
        assert fired == ["far", "near"]

    def test_at_events_interleave_with_tokens_in_schedule_order(self):
        sim = Simulator("epoch")
        fired = []
        sim.post(2, fired.append, "token-a")
        sim.at(sim.now + 2, fired.append, "event")
        sim.post(2, fired.append, "token-b")
        sim.run_until(3)
        assert fired == ["token-a", "event", "token-b"]

    def test_cancelled_event_skipped_between_tokens(self):
        sim = Simulator("epoch")
        fired = []
        sim.post(2, fired.append, "before")
        victim = sim.at(sim.now + 2, fired.append, "victim")
        sim.post(2, fired.append, "after")
        victim.cancel()
        sim.run_until(3)
        assert fired == ["before", "after"]
        assert sim.pending_events() == 0

    def test_token_posts_track_live_count(self):
        sim = Simulator("epoch")
        sim.post(1, lambda: None)
        sim.post(_WINDOW + 10, lambda: None)
        assert sim.pending_events() == 2
        sim.run_until(2)
        assert sim.pending_events() == 1


# ----------------------------------------------------- faults during runs
def _fault_metrics(kernel: str) -> str:
    """Heavy traffic with a link failing and repairing mid-run plus a loss
    burst: fail/repair and fault-drop transitions land while epoch token
    runs are open on the affected links."""
    spec = ExperimentSpec(
        network="fattree",
        traffic=TrafficSpec("heavy"),
        num_nodes=16,
        run_cycles=6000,
        seed=5,
        kernel=kernel,
        observe=Observability(events=True),
        fault_plan=FaultPlan.from_shorthand([
            "fail@1000-2500:link=ft:up0.0",
            "burst@1500-3000:prob=0.2",
        ]),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", [k for k in scheduler_names() if k != "heap"])
def test_fault_mid_run_parity(kernel):
    assert _fault_metrics(kernel) == _fault_metrics("heap")


# ------------------------------------------------------ bulk protocol units
class _ListFeeder(FlitFeeder):
    """Minimal feeder over a fixed flit list (protocol-default methods)."""

    def __init__(self, flits):
        self.flits = list(flits)

    def has_flit_ready(self, link, vc):
        return bool(self.flits)

    def take_flit(self, link, vc):
        return self.flits.pop(0)


class _CountingSink(FlitSink):
    def __init__(self):
        self.calls = []

    def accept_flit(self, port, vc, packet, is_head, is_tail):
        self.calls.append((port, vc, packet, is_head, is_tail))


def _packet(flits=4):
    return Packet(src=0, dst=1, kind=PacketKind.SCALAR, size_bytes=flits * 4)


class TestBulkProtocolDefaults:
    def test_take_flits_stops_at_tail(self):
        pkt = _packet()
        feeder = _ListFeeder([
            (pkt, True, False), (pkt, False, False), (pkt, False, True),
            (pkt, True, False),  # next packet's head: must not be taken
        ])
        taken = feeder.take_flits(None, 0, 10)
        assert [t[2] for t in taken] == [False, False, True]
        assert len(feeder.flits) == 1

    def test_take_flits_respects_max(self):
        pkt = _packet()
        feeder = _ListFeeder([(pkt, True, False), (pkt, False, False)])
        assert len(feeder.take_flits(None, 0, 1)) == 1
        assert len(feeder.flits) == 1

    def test_untake_unsupported_by_default(self):
        with pytest.raises(NotImplementedError):
            _ListFeeder([]).untake_flits(None, 0, 1)

    def test_run_handle_and_target_default_none(self):
        assert _ListFeeder([]).flit_run_handle(None, 0) is None
        assert _CountingSink().flit_target(0, 0) is None

    def test_sinks_are_active_by_default(self):
        assert FlitSink.passive_flit_sink is False
        assert _CountingSink().passive_flit_sink is False

    def test_accept_flits_unrolls_without_tail(self):
        sink = _CountingSink()
        pkt = _packet()
        sink.accept_flits(2, 1, pkt, 3, first_is_head=True)
        assert sink.calls == [
            (2, 1, pkt, True, False),
            (2, 1, pkt, False, False),
            (2, 1, pkt, False, False),
        ]


class TestNicBulkProtocol:
    def _nic_with_stream(self, flits=6):
        from repro.nic.base import BaseNIC, _InjectionStream

        sim = Simulator("epoch")
        nic = BaseNIC(sim, node_id=0)
        link = Link(sim, "l", 4, 1, 8, sink=None, sink_port=0)
        pkt = _packet(flits)
        nic._inj_streams[(id(link), 0)] = _InjectionStream(pkt)
        return nic, link, pkt

    def test_nic_is_passive_sink(self):
        from repro.nic.base import BaseNIC

        assert BaseNIC.passive_flit_sink is True

    def test_claim_handle_reports_remaining(self):
        nic, link, pkt = self._nic_with_stream(flits=6)
        assert nic.flit_run_handle(link, 0) == ("claim", 6)
        nic.take_flit(link, 0)
        assert nic.flit_run_handle(link, 0) == ("claim", 5)
        assert nic.flit_run_handle(link, 1) is None

    def test_bulk_take_and_untake_round_trip(self):
        nic, link, pkt = self._nic_with_stream(flits=6)
        nic.take_flit(link, 0)  # the head goes per-flit
        taken = nic.take_flits(link, 0, 4)
        assert taken == [(pkt, False, False)] * 4
        stream = nic._inj_streams[(id(link), 0)]
        assert stream.flits_sent == 5
        nic.untake_flits(link, 0, 4)
        assert stream.flits_sent == 1
        # After the round trip the classic path proceeds untouched.
        assert nic.take_flit(link, 0) == (pkt, False, False)

    def test_bulk_take_never_claims_past_the_tail_implicitly(self):
        nic, link, pkt = self._nic_with_stream(flits=4)
        nic.take_flit(link, 0)
        taken = nic.take_flits(link, 0, 2)  # body only: 2 of 2 remaining
        assert [t[2] for t in taken] == [False, False]
        # Asking beyond the body reaches the tail via the classic take,
        # with its completion side effects.
        taken = nic.take_flits(link, 0, 5)
        assert [t[2] for t in taken] == [True]
        assert (id(link), 0) not in nic._inj_streams
        assert nic.packets_injected == 1

    def test_accept_flits_is_one_counter_bump(self):
        nic, link, pkt = self._nic_with_stream()
        nic.accept_flits(0, 0, pkt, 3)
        assert nic._ej_flits[(0, 0)] == 3


class TestRouterBulkProtocol:
    def test_flit_target_is_bound_input_unit_accept(self):
        from repro.routers.base import Router

        sim = Simulator("epoch")
        router = Router(sim, 0, route_fn=lambda *a: [])
        link = Link(sim, "in", 4, 2, 8, sink=router, sink_port=3)
        router.attach_in_link(3, link)
        target = router.flit_target(3, 1)
        assert target.__self__ is router._input_units[3][1]

    def test_input_unit_run_handle_describes_head_transit(self):
        from repro.routers.base import Router

        sim = Simulator("epoch")
        router = Router(sim, 0, route_fn=lambda *a: [])
        link = Link(sim, "in", 4, 1, 8, sink=router, sink_port=0)
        router.attach_in_link(0, link)
        unit = router._input_units[0][0]
        pkt = _packet()
        unit.accept_flit(pkt, True, False)
        kind, transit, ret_link, ret_vc = unit.flit_run_handle(None, 0)
        assert kind == "unit"
        assert transit is unit.queue[0]
        assert ret_link is link and ret_vc == 0
