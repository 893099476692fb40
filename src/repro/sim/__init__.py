"""Simulation substrate: deterministic event kernel, RNG streams, barriers.

Importing this package populates the scheduler registry: ``kernel``
registers the ``heap`` reference, ``epoch`` the token-batched default.
"""

from .barrier import Barrier
from .kernel import Event, KernelProfile, Simulator
from .schedulers import (DEFAULT_SCHEDULER, Scheduler, register_scheduler,
                         resolve_scheduler, scheduler_descriptions,
                         scheduler_names)
from .rng import RngFactory
from . import epoch as _epoch  # noqa: F401  (registers the epoch scheduler)

__all__ = [
    "Barrier",
    "DEFAULT_SCHEDULER",
    "Event",
    "KernelProfile",
    "RngFactory",
    "Scheduler",
    "Simulator",
    "register_scheduler",
    "resolve_scheduler",
    "scheduler_descriptions",
    "scheduler_names",
]

