"""Experiment harness: specs, tuned parameters, the runner, sweep helpers,
and ``SweepEngine`` -- a name for the one engine,
:class:`repro.farm.FarmEngine`."""

from .configs import BEST_PARAMS, best_params
from .engine import ResultCache, SweepPoint, code_version
from .runner import (
    NIC_MODES,
    ExperimentResult,
    TrafficFactory,
    make_nic_factory,
    run_experiment,
)
from .spec import ExperimentSpec, SpecSerializationError
from .sweep import (
    REORDER_VARIANT_MODES,
    default_param_grid,
    machine_size_specs,
    nifdy_param_specs,
    offered_load_specs,
    collective_barrier_specs,
    reorder_variant_specs,
    sweep_collective_barrier,
    sweep_machine_sizes,
    sweep_nifdy_params,
    sweep_offered_load,
    sweep_reorder_variants,
)
from .workloads import (
    allreduce,
    cshift,
    em3d,
    heavy_synthetic,
    hotspot,
    incast,
    light_synthetic,
    perf_reference_spec,
    radix_sort,
    rpc_fanout,
)

__all__ = [
    "BEST_PARAMS",
    "NIC_MODES",
    "REORDER_VARIANT_MODES",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "SpecSerializationError",
    "SweepEngine",
    "SweepPoint",
    "TrafficFactory",
    "allreduce",
    "best_params",
    "code_version",
    "collective_barrier_specs",
    "cshift",
    "default_param_grid",
    "em3d",
    "heavy_synthetic",
    "hotspot",
    "incast",
    "light_synthetic",
    "machine_size_specs",
    "make_nic_factory",
    "nifdy_param_specs",
    "offered_load_specs",
    "perf_reference_spec",
    "radix_sort",
    "reorder_variant_specs",
    "rpc_fanout",
    "run_experiment",
    "sweep_collective_barrier",
    "sweep_machine_sizes",
    "sweep_nifdy_params",
    "sweep_offered_load",
    "sweep_reorder_variants",
]


def __getattr__(name: str):
    # ``SweepEngine`` is a name for the one sweep engine,
    # :class:`repro.farm.FarmEngine`.  The farm imports this package, so
    # the name resolves on first use rather than at import time.
    if name == "SweepEngine":
        from ..farm.engine import FarmEngine

        return FarmEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
