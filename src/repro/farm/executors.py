"""Executor registry: the pluggable point-execution backends of the farm.

The one sweep engine (:class:`~repro.farm.engine.FarmEngine`) decides
*what to run and how to recover*; this module decides *how a single point
is executed*, behind the same registry idiom as
:mod:`repro.sim.schedulers`: implementations carry a ``name`` class
attribute, :func:`register_executor` is a decorator, re-registering the
same class is a no-op, and a name collision raises.

Two backends ship with the package:

``pool``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor`.  Cheapest
    per point (workers are reused across points), but a hard worker death
    (``os._exit``, segfault, OOM kill) poisons the whole executor -- the
    backend regenerates the pool and reports the waited point as
    ``worker_died``; co-resident in-flight points may be reported as
    collateral ``worker_died`` and heal through the farm's retry loop.
    Every plain sweep runs here, so this is the package's only process
    pool and its only pool-rescue path.

``subprocess``
    One fresh interpreter per point (``python -m repro.farm.worker``).
    Slower to start, but a crash is *contained and exactly attributed*:
    only the crashing point is affected, and the backend reports its exit
    status.  This is the backend whose :attr:`FarmExecutor.contains_crashes`
    is true -- what the crash-survival tests and the chaos engine's
    hostile workloads want.

Both backends treat ``timeout`` as the per-point liveness watchdog: a
worker that produces no result inside the bound is killed and the point
reported ``timed_out``.

The contract is data-in/data-out: ``run_point`` takes a spec dict (from
:meth:`~repro.experiments.spec.ExperimentSpec.to_dict`) and returns a
result dict in the engine's slim shape -- either a real result or an
``{"error": ...}`` diagnosis carrying optional ``worker_died`` /
``timed_out`` / ``exit_code`` markers.  ``run_point`` must be safe to call
from several dispatcher threads at once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Optional, Tuple, Type

from ..experiments.engine import _execute_spec_dict

_REGISTRY: Dict[str, Type["FarmExecutor"]] = {}

#: Backend used when a farm is built without an explicit name.
DEFAULT_EXECUTOR = "pool"


class FarmExecutor:
    """Interface of a point-execution backend.

    Class attributes:

    ``name``
        Registry key (CLI ``--executor`` choice).
    ``description``
        One line for ``--help`` texts and docs.
    ``contains_crashes``
        True when a hard worker death affects only the crashing point
        (exact attribution); false when co-resident points may be
        reported as collateral ``worker_died``.
    """

    name: str = ""
    description: str = ""
    contains_crashes: bool = False

    def start(self, jobs: int) -> None:
        """Bring the backend up for ``jobs`` concurrent points."""

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        """Execute one spec dict; return the slim result dict.

        Never raises for per-point failures: an in-point exception, a
        dead worker, or a watchdog timeout all come back as an
        ``{"error": ...}`` dict with the matching marker.  Thread-safe.
        """
        raise NotImplementedError

    def interrupt(self) -> None:
        """Kill in-flight work (SIGINT/SIGTERM path); idempotent."""

    def shutdown(self) -> None:
        """Release the backend's resources; idempotent."""


def register_executor(cls: Type[FarmExecutor]) -> Type[FarmExecutor]:
    """Register ``cls`` under ``cls.name``.  Usable as a decorator.

    Re-registering a name with the *same* class is a no-op (module
    reloads); with a different class it raises, because silently swapping
    the execution backend underneath a resumable manifest would make
    crash diagnoses lie.
    """
    name = cls.name
    if not name:
        raise ValueError(f"executor class {cls!r} has no name")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"executor {name!r} already registered to {existing!r}"
        )
    _REGISTRY[name] = cls
    return cls


def executor_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order (= CLI order)."""
    return tuple(_REGISTRY)


def executor_descriptions() -> Dict[str, str]:
    return {name: cls.description for name, cls in _REGISTRY.items()}


def resolve_executor(name: str) -> Type[FarmExecutor]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered: "
            f"{', '.join(executor_names())}"
        ) from None


# --------------------------------------------------------------------------
# "pool": shared process pool, regenerated across breaks.
# --------------------------------------------------------------------------


@register_executor
class PoolExecutor(FarmExecutor):
    """Shared process pool; cheapest per point, coarse crash attribution.

    A hard worker death breaks the whole ``ProcessPoolExecutor``, so the
    backend keeps a *generation* counter: the first ``run_point`` to
    observe a break (or a watchdog timeout) tears the pool down and builds
    a fresh generation; threads waiting on the dead generation report
    their points as collateral ``worker_died`` and the farm's retry loop
    heals them.
    """

    name = "pool"
    description = (
        "shared process pool; fastest, but a hard crash takes collateral "
        "in-flight points with it (healed by retry)"
    )
    contains_crashes = False

    def __init__(self) -> None:
        self._jobs = 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._lock = threading.Lock()

    def start(self, jobs: int) -> None:
        self._jobs = max(1, int(jobs))
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._jobs)

    def _current(self) -> Tuple[ProcessPoolExecutor, int]:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._jobs)
            return self._pool, self._generation

    def _degrade(self, generation: int, kill: bool) -> None:
        """Replace the pool, once per observed generation."""
        with self._lock:
            if self._generation != generation or self._pool is None:
                return  # another thread already regenerated
            pool, self._pool = self._pool, None
            self._generation += 1
        if kill:
            # A wedged worker would block shutdown indefinitely.
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        pool, generation = self._current()
        try:
            future = pool.submit(_execute_spec_dict, spec_dict)
        except Exception:  # noqa: BLE001 - pool broke between points
            self._degrade(generation, kill=False)
            return {
                "error": "process pool was broken before dispatch; "
                         "pool regenerated",
                "worker_died": True,
            }
        try:
            return future.result(timeout=timeout)
        except FuturesTimeout:
            self._degrade(generation, kill=True)
            return {
                "error": (
                    f"point exceeded the {timeout}s wall-clock timeout "
                    "(liveness watchdog); pool generation terminated, "
                    "point not cached"
                ),
                "timed_out": True,
            }
        except BrokenProcessPool:
            self._degrade(generation, kill=False)
            return {
                "error": (
                    "worker process died abruptly while this point was in "
                    "flight (hard exit, segfault, or OOM kill); pool "
                    "regenerated -- the victim may be collateral under "
                    "the shared-pool backend"
                ),
                "worker_died": True,
            }
        except Exception:  # noqa: BLE001 - cancellation, pickling failures
            return {"error": traceback.format_exc()}

    def interrupt(self) -> None:
        with self._lock:
            generation = self._generation
            has_pool = self._pool is not None
        if has_pool:
            self._degrade(generation, kill=True)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------
# "subprocess": one fresh interpreter per point.
# --------------------------------------------------------------------------


def _worker_env() -> Dict[str, str]:
    """Child environment with this package importable.

    The repo runs uninstalled (``PYTHONPATH=src``); a worker interpreter
    must find ``repro`` the same way regardless of how the parent did.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
    return env


@register_executor
class SubprocessExecutor(FarmExecutor):
    """One ``python -m repro.farm.worker`` interpreter per point.

    The worker reads the spec dict as JSON on stdin and writes the slim
    result as JSON on stdout; anything the simulation prints is diverted
    to stderr.  A nonzero exit status (or garbage on stdout) is diagnosed
    as ``worker_died`` with the exit code and a stderr tail -- and affects
    nobody else, which is the point.
    """

    name = "subprocess"
    description = (
        "one interpreter per point; slower, but hard crashes are "
        "contained and exactly attributed (exit status preserved)"
    )
    contains_crashes = True

    #: Kept stderr tail length in a ``worker_died`` diagnosis.
    STDERR_TAIL = 2000

    def __init__(self) -> None:
        self._env = _worker_env()
        self._live: Dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self._interrupted = False

    def start(self, jobs: int) -> None:
        self._interrupted = False

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        if self._interrupted:
            return {"error": "farm interrupted before dispatch"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.farm.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env,
            text=True,
        )
        with self._lock:
            self._live[proc.pid] = proc
        try:
            try:
                out, err = proc.communicate(
                    json.dumps(spec_dict), timeout=timeout
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {
                    "error": (
                        f"point exceeded the {timeout}s liveness "
                        "watchdog; worker killed, point not cached"
                    ),
                    "timed_out": True,
                }
        finally:
            with self._lock:
                self._live.pop(proc.pid, None)
        if proc.returncode != 0:
            tail = (err or "").strip()[-self.STDERR_TAIL:]
            return {
                "error": (
                    f"worker exited with status {proc.returncode} "
                    "(hard exit, signal, or OOM kill)"
                    + (f"; stderr tail:\n{tail}" if tail else "")
                ),
                "worker_died": True,
                "exit_code": proc.returncode,
            }
        try:
            return json.loads(out)
        except ValueError:
            return {
                "error": (
                    "worker exited 0 but wrote no parseable result "
                    f"(stdout: {out[:200]!r})"
                ),
                "worker_died": True,
                "exit_code": 0,
            }

    def interrupt(self) -> None:
        self._interrupted = True
        with self._lock:
            live = list(self._live.values())
        for proc in live:
            try:
                proc.kill()
            except OSError:
                pass

    def shutdown(self) -> None:
        self.interrupt()
        self._interrupted = False
