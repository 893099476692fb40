"""The one sweep engine: retrying, resumable, crash-surviving campaigns.

:class:`FarmEngine` executes every sweep in the package (``run(specs) ->
points`` in input order, a ``stats`` ledger, cache and progress hooks).
:mod:`repro.experiments` exports it as ``SweepEngine``: built with no
manifest and no policy, it is a plain sweep -- no retries, an in-memory
ledger, the shared ``pool`` executor.  Three things serve long hostile
campaigns on top:

* **Pluggable execution** through the
  :mod:`~repro.farm.executors` registry -- a shared process pool for
  cheap friendly sweeps, one interpreter per point when workloads may
  kill their worker.
* **Retry with jittered exponential backoff** for worker-killing
  failures (hard deaths and watchdog timeouts), with a poison-point
  quarantine after :attr:`FarmPolicy.poison_after` deaths so one
  deterministic crasher cannot eat the whole retry budget forever.
  Plain in-point exceptions are *not* retried by default: the simulator
  is deterministic, so a Python exception reproduces identically on
  every attempt.
* **A resumable manifest** (:class:`~repro.farm.manifest.RunManifest`)
  checkpointed after every settled point.  Kill the farm at any instant
  -- SIGINT, SIGKILL, power loss -- and running it again against the
  same manifest re-executes only what never settled.

Backoff is *deterministic*: the jitter is drawn from a
``random.Random`` seeded by ``(policy seed, point index, attempt)``, so
a resumed campaign retries on exactly the schedule the interrupted one
would have used, and tests can assert delays to the digit.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from ..experiments.engine import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SweepPoint,
    _execute_in_process,
    _point_from,
    cacheable,
)
from ..experiments.spec import ExperimentSpec
from ..obs import EventBus, EventKind
from .executors import DEFAULT_EXECUTOR, FarmExecutor, resolve_executor
from .manifest import RunManifest


@dataclass
class FarmPolicy:
    """Retry/poison/backoff knobs of one campaign.

    ``retries`` bounds *extra* attempts per point (total attempts =
    ``retries + 1``).  ``poison_after`` is the worker-death count that
    quarantines a point as ``poisoned``; it defaults to the whole
    attempt budget, so a point that kills a worker on every attempt is
    quarantined exactly when its budget runs out.  Quarantine needs a
    retry budget: with ``retries=0`` a worker-killing failure settles as
    ``timed_out`` or ``worker_died``, never ``poisoned``.  ``retry_errors``
    opts plain (deterministic) in-point exceptions into the retry loop
    -- off by default, because retrying a deterministic failure only
    burns wall clock.
    """

    retries: int = 2
    poison_after: Optional[int] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    retry_errors: bool = False

    @property
    def max_attempts(self) -> int:
        return 1 + max(0, self.retries)

    @property
    def poison_threshold(self) -> int:
        if self.poison_after is not None:
            return max(1, self.poison_after)
        return self.max_attempts

    def as_dict(self) -> Dict:
        return {
            "retries": self.retries,
            "poison_after": self.poison_after,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "backoff_jitter": self.backoff_jitter,
            "seed": self.seed,
            "retry_errors": self.retry_errors,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "FarmPolicy":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C401
        return cls(**{k: v for k, v in doc.items() if k in names})


def backoff_delay(policy: FarmPolicy, index: int, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of point
    ``index``: capped exponential with deterministic downward jitter.

    The jitter RNG is seeded from ``(policy.seed, index, attempt)``
    alone, so the schedule is a pure function of the campaign -- an
    interrupted-and-resumed farm backs off exactly like an uninterrupted
    one, and distinct points never thundering-herd the machine.
    """
    if attempt <= 0:
        return 0.0
    base = policy.backoff_base * (policy.backoff_factor ** (attempt - 1))
    delay = min(policy.backoff_max, base)
    rng = random.Random(policy.seed * 1_000_003 + index * 8191 + attempt)
    return delay * (1.0 - policy.backoff_jitter * rng.random())


@dataclass
class FarmStats:
    """What one engine (cumulatively, across runs) did.

    ``worker_deaths`` counts attempts that cost a worker: hard deaths and
    watchdog kills alike.  ``as_dict`` carries every key
    :class:`repro.report.schema.EngineStats` reads.
    """

    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    resumed: int = 0
    errors: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    retries: int = 0
    poisoned: int = 0
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    def as_dict(self) -> Dict:
        return {
            "points": self.points,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "resumed": self.resumed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "retries": self.retries,
            "poisoned": self.poisoned,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 3),
        }


def campaign_id_for(specs: Iterable[ExperimentSpec], executor: str) -> str:
    """A deterministic campaign id: hash of the ordered spec hashes plus
    the executor name.  Re-issuing the same campaign produces the same
    id (and therefore the same default manifest path), which is what
    makes ``repro farm`` resume naturally after a crash."""
    digest = hashlib.sha256()
    digest.update(executor.encode())
    for spec in specs:
        try:
            digest.update(spec.content_hash().encode())
        except Exception:  # noqa: BLE001 - non-portable spec
            digest.update(repr(spec.label).encode())
        digest.update(b"\0")
    return digest.hexdigest()[:12]


class FarmEngine:
    """Executes campaigns: cache, then resume ledger, then the executor.

    ``jobs`` bounds concurrent points; ``cache`` / ``cache_dir`` control
    the on-disk result cache; ``progress`` is ``(done, total, point) ->
    None`` after every settled point; ``bus`` (a
    :class:`repro.obs.EventBus`) receives one ``sweep_point`` /
    ``sweep_cache_hit`` / ``sweep_error`` event per settled point plus the
    ``farm_*`` lifecycle events; ``point_timeout`` (seconds) is each
    attempt's liveness watchdog.  Then the farm's own: ``executor`` (a
    registry name or an instance), ``policy`` (:class:`FarmPolicy`; none
    means no retries), and ``manifest`` -- a
    :class:`~repro.farm.manifest.RunManifest` to checkpoint into and/or
    resume from.  Without one, every :meth:`run` builds a fresh in-memory
    ledger (still exposed as :attr:`manifest`), so the engine can run any
    number of campaigns back to back.  ``sleep`` is injectable so tests
    can assert the backoff schedule without waiting it out.

    Portable specs always go through the executor, even at ``jobs=1``;
    specs holding opaque traffic callables run in-process, one at a time,
    uncontained and unwatched.  Under the shared ``pool`` executor a hang
    or crash at ``jobs > 1`` can take co-running points with it: they
    settle as collateral ``worker_died`` unless a retry policy heals them.

    On :class:`KeyboardInterrupt` the engine reverts in-flight points to
    ``pending`` (the interrupted attempt does not count against their
    budget), flushes a final checkpoint, kills the backend's workers,
    and re-raises for the CLI to exit 130.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Path] = None,
        progress: Optional[Callable[[int, int, SweepPoint], None]] = None,
        bus: Optional[EventBus] = None,
        point_timeout: Optional[float] = None,
        executor: str = DEFAULT_EXECUTOR,
        policy: Optional[FarmPolicy] = None,
        manifest: Optional[RunManifest] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if isinstance(executor, FarmExecutor):
            self.executor = executor
        else:
            self.executor = resolve_executor(executor)()
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR) if cache else None
        self.policy = policy or FarmPolicy(retries=0)
        self.progress = progress
        self.bus = bus
        self.point_timeout = point_timeout
        self.manifest = manifest
        self._ledger_given = manifest is not None
        self.stats = FarmStats()
        self._sleep = sleep
        self._lock = threading.Lock()
        self._interrupt = threading.Event()

    # ----------------------------------------------------------------- run
    def run(self, specs: Iterable[ExperimentSpec]) -> List[SweepPoint]:
        """Execute (or finish) the campaign; points in input order."""
        specs = list(specs)
        started = time.perf_counter()
        total = len(specs)
        points: List[Optional[SweepPoint]] = [None] * total
        done_count = [0]

        if self._ledger_given:
            manifest = self.manifest
            manifest.verify_resumable(specs)
        else:
            manifest = self.manifest = RunManifest.new(
                campaign_id_for(specs, self.executor.name),
                specs, self.executor.name, self.policy.as_dict(),
            )

        def settle(index: int, point: SweepPoint, *, from_resume=False) -> None:
            """Record one settled point (thread-safe) and checkpoint."""
            with self._lock:
                points[index] = point
                done_count[0] += 1
                self.stats.points += 1
                if from_resume:
                    self.stats.resumed += 1
                if point.error is not None:
                    self.stats.errors += 1
                    if point.poisoned:
                        self.stats.poisoned += 1
                    elif point.timed_out:
                        self.stats.timeouts += 1
                elif not from_resume:
                    if point.cached:
                        self.stats.cache_hits += 1
                    else:
                        self.stats.executed += 1
                stats = self.stats.as_dict()
                stats["wall_s"] = round(
                    time.perf_counter() - started + self.stats.wall_s, 3
                )
                manifest.checkpoint(stats)
                if self.bus is not None:
                    kind = (
                        EventKind.SWEEP_ERROR if point.error is not None
                        else EventKind.SWEEP_CACHE_HIT if point.cached
                        else EventKind.SWEEP_POINT
                    )
                    self.bus.emit(done_count[0], kind, -1, info=point.label)
                if self.progress is not None:
                    self.progress(done_count[0], total, point)

        # Interrupted attempts leave points marked "running"; they never
        # settled, so they go back on the queue with their budget intact.
        for ps in manifest.points:
            if ps.state == "running":
                ps.state = "pending"

        pending: List[int] = []
        for index, spec in enumerate(specs):
            ps = manifest.points[index]
            if ps.terminal:
                settle(index, self._from_ledger(spec, ps), from_resume=True)
                self._emit(EventKind.FARM_RESUME, index,
                           f"{ps.label}: {ps.state} (from manifest)")
                continue
            if self.cache is not None and cacheable(spec):
                hit = self.cache.get(spec)
                if hit is not None:
                    ps.state = "done"
                    ps.result = hit
                    settle(index, _point_from(spec, hit, cached=True))
                    continue
            pending.append(index)

        manifest.checkpoint(self.stats.as_dict())  # the file exists early
        try:
            self._dispatch(specs, pending, settle)
        except KeyboardInterrupt:
            self._interrupt.set()
            self.executor.interrupt()
            with self._lock:
                for ps in manifest.points:
                    if ps.state == "running":
                        ps.state = "pending"
                self.stats.wall_s += time.perf_counter() - started
                manifest.checkpoint(self.stats.as_dict())
            raise
        finally:
            self.executor.shutdown()

        self.stats.wall_s += time.perf_counter() - started
        manifest.checkpoint(self.stats.as_dict())
        return [p for p in points if p is not None]

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, specs, pending, settle) -> None:
        portable = [i for i in pending if specs[i].portable]
        workers = min(self.jobs, len(portable))
        if workers:
            self.executor.start(workers)
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as threads:
                futures = [
                    threads.submit(self._run_point, specs, index, settle)
                    for index in portable
                ]
                try:
                    for future in futures:
                        future.result()
                except KeyboardInterrupt:
                    self._interrupt.set()
                    self.executor.interrupt()
                    for future in futures:
                        future.cancel()
                    raise
        # Opaque traffic callables cannot cross a process boundary, and
        # threads would only contend for the GIL: in-process points run
        # here, one at a time.
        for index in pending:
            if workers <= 1 or not specs[index].portable:
                self._run_point(specs, index, settle)

    def _run_point(self, specs, index: int, settle) -> None:
        """One point's full retry loop (on a dispatcher thread when
        ``jobs > 1``)."""
        spec = specs[index]
        ps = self.manifest.points[index]
        policy = self.policy
        while True:
            if self._interrupt.is_set():
                return  # stays pending; the resume re-dispatches it
            ps.state = "running"
            ps.attempts += 1
            self._emit(EventKind.FARM_DISPATCH, index,
                       f"{ps.label}: attempt {ps.attempts}")
            result = self._execute(spec)
            if self._interrupt.is_set() and "error" in result:
                # The attempt was killed by the interrupt, not the
                # workload: it does not count against the budget.
                ps.attempts -= 1
                ps.state = "pending"
                return
            if "error" not in result:
                ps.state = "done"
                ps.error = None
                ps.result = result
                if self.cache is not None and cacheable(spec):
                    self.cache.put(spec, result)
                settle(index, _point_from(spec, result, cached=False))
                return
            worker_killing = bool(
                result.get("worker_died") or result.get("timed_out")
            )
            if worker_killing:
                ps.worker_deaths += 1
                with self._lock:
                    self.stats.worker_deaths += 1
            if (policy.max_attempts > 1
                    and ps.worker_deaths >= policy.poison_threshold):
                ps.state = "poisoned"
                ps.error = result["error"]
                result = dict(result, poisoned=True)
                self._emit(EventKind.FARM_POISON, index,
                           f"{ps.label}: quarantined after "
                           f"{ps.worker_deaths} worker death(s)")
                settle(index, _point_from(spec, result, cached=False))
                return
            retryable = worker_killing or policy.retry_errors
            if retryable and ps.attempts < policy.max_attempts:
                delay = backoff_delay(policy, index, ps.attempts)
                with self._lock:
                    self.stats.retries += 1
                self._emit(EventKind.FARM_RETRY, index,
                           f"{ps.label}: attempt {ps.attempts} failed "
                           f"({'worker death' if worker_killing else 'error'}"
                           f"), backing off {delay:.3f}s")
                if delay > 0:
                    self._sleep(delay)
                continue
            ps.state = "timed_out" if result.get("timed_out") else "errored"
            ps.error = result["error"]
            settle(index, _point_from(spec, result, cached=False))
            return

    def _execute(self, spec: ExperimentSpec) -> Dict:
        if not spec.portable:  # in-process, uncontained and unwatched
            return _execute_in_process(spec)
        return self.executor.run_point(spec.to_dict(), self.point_timeout)

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _from_ledger(spec: ExperimentSpec, ps) -> SweepPoint:
        """Rebuild a settled point from its manifest entry."""
        if ps.state == "done" and ps.result is not None:
            return _point_from(spec, ps.result, cached=True)
        result = {
            "error": ps.error or f"point settled as {ps.state}",
            "timed_out": ps.state == "timed_out",
            "poisoned": ps.state == "poisoned",
            "worker_died": ps.worker_deaths > 0,
        }
        return _point_from(spec, result, cached=False)

    def _emit(self, kind: str, index: int, info: str) -> None:
        if self.bus is not None:
            self.bus.emit(index, kind, -1, info=info)
