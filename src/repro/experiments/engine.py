"""Sweep building blocks: points, the result cache, and the worker entry.

The paper's evaluation is sweeps -- Table 3 parameter grids, Figure 4
machine sizes, the Section 1 operating-range curve -- and every point is an
independent simulation.  One engine runs them all:
:class:`repro.farm.FarmEngine`, which :mod:`repro.experiments` also exports
as ``SweepEngine`` (no retries, an in-memory ledger, the ``pool``
executor).  This module holds what that engine and its worker processes
share: the :class:`SweepPoint` a spec settles into, the on-disk
:class:`ResultCache`, and :func:`_execute_spec_dict`, the data-in/data-out
function every executor backend runs.

Determinism: each spec carries its own seed and the simulation derives all
randomness from it (``RngFactory``), so a point's result is identical
whether it runs in-process, in a worker process, or comes from the cache --
the property the CI sweep-smoke job asserts.

Cache layout (``benchmarks/results/.cache/`` by default, override with the
``cache_dir`` argument or ``REPRO_SWEEP_CACHE``)::

    <spec content hash>-<code version prefix>.json
        {"spec": <spec dict>, "code_version": <full hash>, "result": {...}}

The key pairs the spec's content hash with a *code version* (a hash over
the package's own source files), so editing the simulator invalidates every
cached result without any manual bookkeeping.  Only portable specs (traffic
expressed as a registry :class:`~repro.traffic.TrafficSpec`) are cached or
dispatched to workers; specs holding opaque traffic callables run
in-process, uncached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..nic import NifdyParams
from .spec import ExperimentSpec, SpecSerializationError

#: Default on-disk cache location (relative to the invocation directory,
#: which for this repo's CLI, tests, and benches is the repo root).
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_SWEEP_CACHE", "benchmarks/results/.cache")
)

# The slim result shape is owned by the results schema (the same field
# list backs the sweep cache, ``--json`` CLI output, CSV export, and the
# report), so the engine can never drift from what the loaders expect.
from ..report.schema import RUN_STATS_FIELDS as _RESULT_FIELDS

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """A hash over the package's own source files: the cache's second key.

    Any edit to ``repro``'s code changes this value, invalidating every
    cached sweep result at once.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


@dataclass
class SweepPoint:
    """One spec's outcome in a sweep.

    The first four fields keep the pre-engine constructor shape
    (``SweepPoint(label, params, delivered, cycles)``); the rest describe
    how the engine obtained the result.  ``cycles`` is the *actual*
    simulated cycle count (summed over constituent runs for aggregated
    points), not the requested horizon, so :attr:`throughput` stays honest
    for early-completing workloads.
    """

    label: str
    params: Optional[NifdyParams]
    delivered: int
    cycles: int
    sent: int = 0
    completed: bool = True
    order_violations: int = 0
    abandoned: int = 0
    spec_hash: Optional[str] = None
    cached: bool = False
    error: Optional[str] = None
    wall_s: float = 0.0
    stall_report: Optional[str] = None
    #: Invariant violations (dicts from
    #: :meth:`repro.validate.Violation.to_dict`) when the spec ran with
    #: ``observe.validate``; empty otherwise.
    violations: List[Dict] = field(default_factory=list)
    #: The point hit the engine's per-point wall-clock timeout (its
    #: ``error`` carries the diagnosis; never cached).
    timed_out: bool = False
    #: The worker process executing (or co-resident with) this point died
    #: hard -- ``os._exit``, segfault, OOM kill -- rather than raising.
    worker_died: bool = False
    #: The engine quarantined this point after it killed workers repeatedly
    #: under a retry policy (see :class:`repro.farm.FarmPolicy`); never set
    #: with ``retries=0``, where such a point settles ``timed_out`` or
    #: ``worker_died``.
    poisoned: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def throughput(self) -> float:
        return 1000.0 * self.delivered / self.cycles if self.cycles else 0.0


class ResultCache:
    """Content-addressed JSON files: spec hash + code version -> result."""

    def __init__(self, directory: Path = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)

    def _path(self, spec: ExperimentSpec) -> Path:
        return self.directory / f"{spec.content_hash()}-{code_version()[:12]}.json"

    def get(self, spec: ExperimentSpec) -> Optional[Dict]:
        path = self._path(spec)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return doc.get("result")

    def put(self, spec: ExperimentSpec, result: Dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "spec": spec.to_dict(),
            "code_version": code_version(),
            "result": result,
        }
        path = self._path(spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)  # atomic: concurrent sweeps race benignly


def cacheable(spec: ExperimentSpec) -> bool:
    """Portable AND safe to share a cache entry.  ``observe`` is excluded
    from :meth:`~ExperimentSpec.content_hash` (instrumentation does not
    change results), but a *validated* run's result carries ``violations``
    that an unvalidated run of the same spec would not -- so validated runs
    bypass the cache in both directions."""
    if not spec.portable:
        return False
    return spec.observe is None or not spec.observe.validate


def _slim_result(result) -> Dict:
    """The picklable, cacheable subset of an ExperimentResult."""
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _execute_spec_dict(spec_dict: Dict) -> Dict:
    """Worker entry point: rebuild the spec from data, run it, return the
    slim result (or a traceback).  Takes/returns only plain data so it
    crosses process boundaries under any start method."""
    t0 = time.perf_counter()
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        result = _execute_in_process(spec)
    except Exception:  # noqa: BLE001 - isolation is the point
        result = {"error": traceback.format_exc()}
    result.setdefault("wall_s", time.perf_counter() - t0)
    return result


def _execute_in_process(spec: ExperimentSpec) -> Dict:
    from .runner import run_experiment  # deferred: avoids an import cycle

    t0 = time.perf_counter()
    try:
        result = _slim_result(run_experiment(spec))
    except Exception:  # noqa: BLE001 - isolation is the point
        result = {"error": traceback.format_exc()}
    result["wall_s"] = time.perf_counter() - t0
    return result


def _point_from(spec: ExperimentSpec, result: Dict, *, cached: bool) -> SweepPoint:
    label = spec.label or spec.describe()
    wall_s = result.get("wall_s", 0.0)
    if "error" in result:
        return SweepPoint(
            label, spec.nifdy_params, 0, 0, spec_hash=_safe_hash(spec),
            completed=False, error=result["error"], wall_s=wall_s,
            timed_out=bool(result.get("timed_out")),
            worker_died=bool(result.get("worker_died")),
            poisoned=bool(result.get("poisoned")),
        )
    return SweepPoint(
        label,
        spec.nifdy_params,
        result["delivered"],
        result["cycles"],
        sent=result["sent"],
        completed=result["completed"],
        order_violations=result["order_violations"],
        abandoned=result["abandoned"],
        spec_hash=_safe_hash(spec),
        cached=cached,
        wall_s=wall_s,
        stall_report=result.get("stall_report"),
        violations=list(result.get("violations") or ()),
    )


def _safe_hash(spec: ExperimentSpec) -> Optional[str]:
    try:
        return spec.content_hash()
    except SpecSerializationError:
        return None
