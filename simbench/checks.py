"""The outputs check: per-point verdicts, run digests and heap references.

Every timed point becomes an :class:`Outcome`, whether it ran in-process
or came back from an engine.  :func:`judge` splits what can go wrong into
two kinds that must never be confused:

* a *failed operation* (an errored, timed-out, stalled or worker-died
  point; abandoned packets; RPC rounds given up) is counted in the
  benchmark's failure ratio;
* an *incorrect output* (broken packet accounting, an invariant
  violation, reordering where order is promised, an allreduce sum error,
  a digest that differs between repeats or from the heap kernel, a cache
  hit) fails the run.

Digests: an in-process point hashes ``metrics_json`` minus the kernel's
``self_profile``; an engine point hashes the ``RunStats`` fields its
``SweepPoint`` carries.  Violation records are left out because their
packet uids come from a process-wide counter.  Nothing here is timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import ExperimentSpec, run_experiment
from repro.nic import REORDER_NIC_MODES
from repro.obs import Observability, metrics_json
from repro.traffic import AllReduceDriver, Em3dDriver, RpcDriver, SyntheticDriver

#: NIC modes that promise per-sender order on a reordering fabric (the
#: modes the runner gives the in-order-aware library).
ORDERED_MODES = frozenset({"nifdy", *REORDER_NIC_MODES})
#: ``RunStats`` fields an engine's ``SweepPoint`` carries: the engine digest.
ENGINE_FIELDS = (
    "delivered", "cycles", "sent", "completed", "order_violations",
    "abandoned", "stall_report",
)
#: The self-verifying allreduce driver's error text.
SUM_ERROR = "allreduce returned"


def digest(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Digest of an in-process result: its metrics JSON, minus timings."""
    doc = metrics_json(result)
    doc.pop("self_profile", None)
    return digest(doc)


def engine_digest(fields: Dict) -> str:
    return digest({name: fields[name] for name in ENGINE_FIELDS})


@dataclass
class Outcome:
    """What one point produced, reduced to what the check needs."""

    label: str
    horizon: bool  # fixed ``run_cycles`` horizon (else run to completion)
    error: Optional[str] = None
    timed_out: bool = False
    worker_died: bool = False
    completed: bool = True
    stall_report: Optional[str] = None
    sent: int = 0
    delivered: int = 0
    abandoned: int = 0
    cycles: int = 0
    order_violations: int = 0
    violations: int = 0
    digest: Optional[str] = None

    @classmethod
    def from_result(cls, spec: ExperimentSpec, result) -> "Outcome":
        """From an in-process ``ExperimentResult`` (full digest)."""
        return cls(
            label=spec.label, horizon=spec.run_cycles is not None,
            violations=len(result.violations), digest=result_digest(result),
            **{name: getattr(result, name) for name in ENGINE_FIELDS},
        )

    @classmethod
    def from_point(cls, spec: ExperimentSpec, point) -> "Outcome":
        """From an engine's ``SweepPoint``."""
        if point.error is not None:
            return cls.from_error(
                spec, point.error, timed_out=point.timed_out,
                worker_died=point.worker_died,
            )
        fields = {name: getattr(point, name) for name in ENGINE_FIELDS}
        return cls(
            label=spec.label, horizon=spec.run_cycles is not None,
            violations=len(point.violations), digest=engine_digest(fields),
            **fields,
        )

    @classmethod
    def from_error(cls, spec: ExperimentSpec, error: str, **flags) -> "Outcome":
        return cls(label=spec.label, horizon=spec.run_cycles is not None,
                   error=error, completed=False, **flags)


def run_point(spec: ExperimentSpec, profile=None):
    """Run ``spec`` in-process: ``(outcome, result or None, seconds)``,
    where ``seconds`` times the simulation alone, not the check.  An
    exception in the simulation becomes an errored outcome, as in the
    engines.  A ``cProfile.Profile`` given as ``profile`` is on only while
    the simulation runs."""
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        result = run_experiment(spec)
    except Exception:  # noqa: BLE001 - a point's failure is data here
        result = None
        error = traceback.format_exc()
    finally:
        if profile is not None:
            profile.disable()
        seconds = time.perf_counter() - start
    if result is None:
        return Outcome.from_error(spec, error), None, seconds
    return Outcome.from_result(spec, result), result, seconds


def judge(outcome: Outcome, order_promised: bool) -> Tuple[bool, List[str]]:
    """``(failed, problems)`` for one point: ``failed`` marks a failed
    operation, ``problems`` lists incorrect outputs."""
    label = outcome.label
    if outcome.error is not None:
        if SUM_ERROR in outcome.error:
            return True, [f"{label}: allreduce sum error: "
                          f"{outcome.error.strip().splitlines()[-1]}"]
        return True, []
    if not outcome.horizon and (not outcome.completed or outcome.stall_report):
        return True, []
    problems = []
    if outcome.horizon:
        if outcome.delivered + outcome.abandoned > outcome.sent:
            problems.append(
                f"{label}: delivered {outcome.delivered} + abandoned "
                f"{outcome.abandoned} exceeds sent {outcome.sent}")
    elif outcome.delivered != outcome.sent - outcome.abandoned:
        problems.append(
            f"{label}: delivered {outcome.delivered} != sent {outcome.sent} "
            f"- abandoned {outcome.abandoned}")
    if outcome.violations:
        problems.append(f"{label}: {outcome.violations} invariant violation(s)")
    if order_promised and outcome.order_violations:
        problems.append(
            f"{label}: {outcome.order_violations} order violation(s) where "
            "order is promised")
    return False, problems


# ------------------------------------------- heap references, own runs


def iteration_cycles(spec: ExperimentSpec, result) -> Optional[float]:
    """Simulated cycles per iteration of the workload's driver loop: an
    EM3D iteration, an allreduce round, or (heavy synthetic traffic) one
    send per node over the fixed horizon.  ``None`` where the driver has
    no such loop (RPC and incast points)."""
    driver = result.drivers[0]
    if isinstance(driver, Em3dDriver):
        return driver.cycles_per_iteration()
    if isinstance(driver, AllReduceDriver):
        if driver.finished_cycle is None:
            return None
        return driver.finished_cycle / driver.config.rounds
    if isinstance(driver, SyntheticDriver) and spec.run_cycles and result.sent:
        return spec.run_cycles * spec.num_nodes / result.sent
    return None


def figures(spec: ExperimentSpec, result) -> Dict:
    """The simulated quantities the end-to-end metrics are built from."""
    total = result.metrics.total_latency
    network = result.metrics.network_latency
    rpc_roots = [
        d for d in result.drivers if isinstance(d, RpcDriver) and d.is_root
    ]
    return {
        "cycles": result.cycles,
        "sent": result.sent,
        "delivered": result.delivered,
        "abandoned": result.abandoned,
        "latency_count": total.count,
        "latency_total": total.total,
        "latency_max": total.maximum,
        "latency_rows": total.rows(),
        "network_latency_count": network.count,
        "network_latency_total": network.total,
        "iteration_cycles": iteration_cycles(spec, result),
        "rpc_rounds": sum(d.config.rounds for d in rpc_roots),
        "rounds_given_up": sum(d.rounds_given_up for d in rpc_roots),
    }


def reference_point(spec_dict: Dict) -> Dict:
    """Run one spec on the heap kernel (the executable specification) and
    return plain data: the outcome under both digests, and whether the run
    promises order.  Takes and returns only data so it runs in a worker
    process."""
    spec = ExperimentSpec.from_dict(spec_dict).replace(kernel="heap")
    outcome, result, _ = run_point(spec)
    doc = {"outcome": dataclasses.asdict(outcome), "engine_digest": None,
           "order_promised": False}
    if result is not None:
        doc["engine_digest"] = engine_digest(
            {name: getattr(result, name) for name in ENGINE_FIELDS})
        doc["order_promised"] = bool(
            result.network_obj.delivers_in_order
            or spec.nic_mode in ORDERED_MODES)
    return doc


def own_point(spec_dict: Dict) -> Dict:
    """Run one spec on its own kernel, untimed, with the kernel's event
    counter on (observability's ``profile`` knob, which leaves results
    unchanged): the outcome, the number of events fired and the simulated
    figures.  The outcome's full digest is held to the heap reference, and
    the timed runs are held to the same reference, so the figures are
    those of the program under test."""
    spec = ExperimentSpec.from_dict(spec_dict)
    observe = (Observability(events=False, profile=True)
               if spec.observe is None
               else dataclasses.replace(spec.observe, profile=True))
    outcome, result, _ = run_point(spec.replace(observe=observe))
    doc = {"outcome": dataclasses.asdict(outcome), "events": 0,
           "figures": None}
    if result is not None:
        doc["events"] = result.obs.kernel_profile.events
        doc["figures"] = figures(spec, result)
    return doc


def in_workers(fn, specs: Sequence[ExperimentSpec], jobs: int) -> List[Dict]:
    """``fn`` (:func:`reference_point` or :func:`own_point`) over every
    spec, in ``jobs`` forked worker processes.  Forked, as the engines'
    workers are: a spawned pool would also start multiprocessing's
    resource tracker, a process that outlives the benchmark."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max_workers=max(1, min(jobs, len(specs))), mp_context=context,
    ) as pool:
        return list(pool.map(fn, [s.to_dict() for s in specs]))


# ------------------------------------------------------------ the verdict


@dataclass
class Verdict:
    """The outputs check of one benchmark run."""

    problems: List[str] = field(default_factory=list)
    failed_points: int = 0
    points: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems

    def check_repeats(self, references: Sequence[Dict],
                      repeats: Sequence[Sequence[Outcome]],
                      engine: bool) -> List[int]:
        """Judge every repeat of every point and hold each to the first
        repeat's digest and to the heap reference's.  Returns, per point,
        how many of its repeats were failed operations."""
        key = "engine_digest" if engine else None
        fails = []
        for index, ref in enumerate(references):
            ref_outcome = Outcome(**ref["outcome"])
            promised = ref["order_promised"]
            failed, problems = judge(ref_outcome, promised)
            self.problems.extend(f"heap reference {p}" for p in problems)
            want = None if failed else (
                ref[key] if key else ref_outcome.digest)
            first = None
            fails.append(0)
            for outcomes in repeats:
                outcome = outcomes[index]
                self.points += 1
                failed, problems = judge(outcome, promised)
                self.problems.extend(problems)
                if failed:
                    self.failed_points += 1
                    fails[-1] += 1
                    continue
                if first is None:
                    first = outcome.digest
                elif outcome.digest != first:
                    self.problems.append(
                        f"{outcome.label}: digest differs between repeats")
                if want is not None and outcome.digest != want:
                    self.problems.append(
                        f"{outcome.label}: digest differs from the heap "
                        "kernel reference")
        return fails

    def check_cache(self, cache_hits: int) -> None:
        if cache_hits:
            self.problems.append(
                f"engine served {cache_hits} point(s) from the result cache")
