"""The three benchmark workloads, as lists of ``ExperimentSpec`` points.

Every workload is a closed loop: a *round* is one pass over the
workload's points, and the next round starts only when the last point of
the previous round has finished.  The workload seed (``--seed``) feeds
``ExperimentSpec.seed`` and nothing else; every spec leaves ``kernel`` at
the spec default, so a change of the default kernel is measured.

Each workload runs its points under several point seeds derived from the
workload seed, so one run averages over several inputs and its figures
move less from one workload seed to the next.  ``smoke=True`` gives the
smallest configuration of each workload (16 nodes, short horizons, one
point seed); the benchmark's own tests use it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments import (
    ExperimentSpec,
    allreduce,
    em3d,
    heavy_synthetic,
    incast,
    rpc_fanout,
)
from repro.faults import FaultEvent, FaultPlan
from repro.nic import CollectiveParams
from repro.obs import Observability
from repro.traffic import AllReduceConfig, Em3dConfig, IncastConfig, RpcFanoutConfig

#: The four NIC configurations of the paper's Figures 2/3 and 6-9.
PAPER_MODES = ("plain", "buffered", "nifdy-", "nifdy")
#: The reorder-tolerant receiver policies: NIFDY window, Eunomia bitmap
#: (arXiv 2412.08540) and Jain drop-vs-cache (cs/9809098).
REORDER_MODES = ("reorder-window", "reorder-bitmap", "reorder-jain")

IN_PROCESS = "in-process"
SWEEP = "sweep"
FARM = "farm"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its points and how a round dispatches them."""

    name: str
    dispatch: str  # IN_PROCESS, SWEEP (SweepEngine) or FARM (FarmEngine)
    specs: Tuple[ExperimentSpec, ...]


def point_seeds(seed: int, count: int) -> range:
    """The ``count`` point seeds of workload seed ``seed``; distinct
    workload seeds never share one."""
    return range(seed * count, (seed + 1) * count)


def heavy_window(seed: int, smoke: bool = False) -> Workload:
    """Fig 2 heavy synthetic traffic on the 64-node fat tree, one fixed
    horizon per paper NIC mode, run in-process with obs detached."""
    nodes, horizon, seeds = (16, 500, 1) if smoke else (64, 2000, 2)
    specs = tuple(
        ExperimentSpec(
            network="fattree", traffic=heavy_synthetic(), num_nodes=nodes,
            nic_mode=mode, run_cycles=horizon, seed=point_seed,
            observe=None, label=f"heavy-window/{mode}/s{point_seed}",
        )
        for point_seed in point_seeds(seed, seeds)
        for mode in PAPER_MODES
    )
    return Workload("heavy-window", IN_PROCESS, specs)


def em3d_sweep(seed: int, smoke: bool = False) -> Workload:
    """Fig 8 EM3D heavy communication, run to completion, over the paper
    modes on the fat tree and the 2D mesh, through the SweepEngine.

    The graph is a tenth of Fig 8's per processor, on 16 processors: a
    ``dist_span`` of 20 then reaches all 15 others, so a message averages
    5-6 packets and passes the 4-packet bulk threshold (Fig 8 at full
    scale on 64 processors averages about 24).  On 64 processors the same
    per-processor graph spreads over 40 destinations and its messages
    average 2.5 packets."""
    config = Em3dConfig.heavy_communication(
        scale=0.02 if smoke else 0.1, iterations=1)
    specs = tuple(
        ExperimentSpec(
            network=network, traffic=em3d(config), num_nodes=16,
            nic_mode=mode, seed=seed, max_cycles=30_000_000,
            label=f"em3d-sweep/{network}/{mode}/s{seed}",
        )
        for network in ("fattree", "mesh2d")
        for mode in PAPER_MODES
    )
    return Workload("em3d-sweep", SWEEP, specs)


#: The collective group's fault plan: a fat-tree up-link fails mid-run and
#: is repaired, under a loss burst that outlives it.
ALLREDUCE_FAULTS = FaultPlan(events=(
    FaultEvent(kind="link_fail", at=1500, until=4000, link="ft:up0.0"),
    FaultEvent(kind="loss_burst", at=500, until=6000, prob=0.08),
))


def lossy_rpc(seed: int, smoke: bool = False) -> Workload:
    """Partition-aggregate RPC and incast on a lossy, path-skewed spraying
    fat tree under each reorder-tolerant receiver, plus a NIC-offloaded
    allreduce under a link failure and a loss burst.  Every point runs
    with the invariant monitor attached, through the FarmEngine."""
    nodes, fanout, seeds = (16, 8, 1) if smoke else (64, 16, 2)
    specs = []
    for point_seed in point_seeds(seed, seeds):
        lossy = dict(
            network="fattree-spray", num_nodes=nodes, seed=point_seed,
            drop_prob=0.01, network_overrides={"path_skew": 4},
        )
        for mode in REORDER_MODES:
            specs.append(ExperimentSpec(
                traffic=rpc_fanout(RpcFanoutConfig(fanout=fanout)),
                nic_mode=mode, observe=Observability(validate=True),
                label=f"lossy-rpc/rpc/{mode}/s{point_seed}", **lossy,
            ))
            specs.append(ExperimentSpec(
                traffic=incast(IncastConfig(rounds=2, packets_per_round=4)),
                nic_mode=mode, observe=Observability(validate=True),
                label=f"lossy-rpc/incast/{mode}/s{point_seed}", **lossy,
            ))
        specs.append(ExperimentSpec(
            network="fattree", traffic=allreduce(AllReduceConfig(rounds=4)),
            num_nodes=nodes, nic_mode="nifdy", seed=point_seed,
            collective_params=CollectiveParams(barrier="nic"),
            fault_plan=ALLREDUCE_FAULTS, observe=Observability(validate=True),
            label=f"lossy-rpc/allreduce/nifdy/s{point_seed}",
        ))
    return Workload("lossy-rpc", FARM, tuple(specs))


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "heavy-window": heavy_window,
    "em3d-sweep": em3d_sweep,
    "lossy-rpc": lossy_rpc,
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return factory(seed, smoke=smoke)


def fresh(spec: ExperimentSpec, **changes) -> ExperimentSpec:
    """A copy of ``spec`` with its own ``Observability`` object: the runner
    fills the handles of the object it is given, so in-process repeats of
    one spec must not share it."""
    if spec.observe is not None:
        changes.setdefault("observe", dataclasses.replace(
            spec.observe, bus=None, sampler=None, tracer=None,
            kernel_profile=None, monitor=None,
        ))
    return spec.replace(**changes)
