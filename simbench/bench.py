"""One benchmark run: set-up, timed closed-loop rounds, the outputs check,
and the end-to-end metrics (untraced) or the per-layer split (traced).

Host seconds are wall-clock (``time.perf_counter``).  Simulated values are
cycles; they come from an untimed run of every point on its own kernel,
which the outputs check holds byte-identical to the heap-kernel reference
and, through it, to the timed runs.  A point with a failed timed run is
left out of them.  They repeat exactly for a fixed seed.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import os
import platform
import pstats
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import ExperimentSpec, SweepEngine, run_experiment
from repro.farm import FarmEngine, FarmPolicy, RunManifest, campaign_id_for

from .checks import (
    Outcome, Verdict, in_workers, own_point, reference_point, run_point,
)
from .layers import (
    OTHER, PACKAGES, Spans, cumulative_s, ratio, result_counters,
    self_time_by_package,
)
from .workloads import FARM, IN_PROCESS, SWEEP, Workload, build, fresh

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "point_s_p50": "s",
    "point_s_tail": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "sim_delivered_per_kcycle": "pkts/kcycle",
    "sim_latency_mean_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
    "sim_cycles_per_iter": "cycles",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    **{f"{package}.self_s": "s" for package in PACKAGES + (OTHER,)},
    "links.flits": "count",
    "links.busy_share": "ratio",
    "links.packets_dropped": "count",
    "routers.flits_forwarded": "count",
    "networks.build_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "node.busy_share": "ratio",
    "traffic.rounds_given_up": "count",
    "nic.attach_s": "s",
    "nic.packets_injected": "count",
    "nic.acks_sent": "count",
    "nic.bulk_grants": "count",
    "nic.bulk_rejects": "count",
    "nic.retransmissions": "count",
    "nic.duplicates_dropped": "count",
    "nic.coll_retransmits": "count",
    "nic.goodput_ratio": "ratio",
    "nic.source_wait_mean_cycles": "cycles",
    "obs.bus_events": "count",
    "validate.violations": "count",
    "experiments.dispatch_s": "s",
    "experiments.cache_hits": "count",
    "farm.checkpoint_s": "s",
    "farm.retries": "count",
    "farm.worker_deaths": "count",
    "trace.overhead_ratio": "ratio",
}

#: Set-ups measured before every timed round; ``setup_s`` is built from
#: the medians of all of them.
SETUPS_PER_ROUND = 2
#: ``point_s_tail`` is this percentile of the point times.
TAIL_PERCENTILE = 75
#: Point times a run collects at least, so that ten or more lie beyond
#: the tail percentile whatever the host's speed.
TAIL_SAMPLES = 40
#: Iterations of the host calibration loop.
CALIBRATION_LOOP = 1_000_000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def calibration_s() -> float:
    """Best of three timings of a fixed pure-Python loop: a host speed
    stamp recorded next to the raw host times, never substituted for them."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def host_stamp() -> Dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "kernel": ExperimentSpec.__dataclass_fields__["kernel"].default,
        "calibration_s": calibration_s(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def min_rounds(points: int) -> int:
    """Rounds a run makes at least: enough for ``TAIL_SAMPLES`` point times."""
    return -(-TAIL_SAMPLES // points)


def tail(values: Sequence[float]) -> float:
    """The ``TAIL_PERCENTILE``-th percentile of ``values``, interpolated
    between the samples that straddle it.  The percentile is fixed, so
    runs with different sample counts report the same statistic."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[TAIL_PERCENTILE - 1]


def p99(fig: Dict) -> float:
    """p99 of one point's log-bucket latency histogram, interpolated
    linearly inside the bucket that holds it and clamped to the exact
    maximum.  A bare bucket bound jumps by 2x from one input to the next."""
    target = 0.99 * fig["latency_count"]
    seen = 0
    for label, count in fig["latency_rows"]:
        low = int(label.split("-")[0])
        if seen + count >= target:
            high = max(2 * low, 1)
            return min(low + (high - low) * (target - seen) / count,
                       fig["latency_max"])
        seen += count
    return fig["latency_max"]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive values (0.0 when there are none):
    each point weighs the same, however many cycles it ran."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


# --------------------------------------------------------------- dispatch


class TimedManifest(RunManifest):
    """A farm manifest that times its own checkpoints."""

    checkpoint_s = 0.0

    def checkpoint(self, stats: Optional[Dict] = None) -> None:
        start = time.perf_counter()
        super().checkpoint(stats)
        self.checkpoint_s += time.perf_counter() - start


@dataclass
class Round:
    """One closed-loop pass over a workload's points."""

    wall_s: float
    outcomes: List[Outcome]
    point_s: List[float]
    point_end: List[float] = field(default_factory=list)
    cache_hits: int = 0
    retries: int = 0
    worker_deaths: int = 0
    checkpoint_s: float = 0.0


def run_round(workload: Workload, jobs: int, workdir: Path,
              specs: Optional[Sequence[ExperimentSpec]] = None) -> Round:
    """Dispatch one round (``specs`` defaults to the workload's points)."""
    specs = list(workload.specs if specs is None else specs)
    start = time.perf_counter()
    if workload.dispatch == IN_PROCESS:
        # The round's wall time is its points' simulation time: the
        # outputs check between points is not timed.
        outcomes, point_s = [], []
        for spec in specs:
            outcome, _, seconds = run_point(fresh(spec))
            outcomes.append(outcome)
            point_s.append(seconds)
        return Round(sum(point_s), outcomes, point_s)

    ends: Dict[str, float] = {}

    def progress(_done, _total, point) -> None:
        ends[point.label] = time.perf_counter()

    manifest = None
    if workload.dispatch == SWEEP:
        engine = SweepEngine(jobs=jobs, cache=False, progress=progress)
    elif workload.dispatch == FARM:
        policy = FarmPolicy()
        manifest = TimedManifest.new(
            campaign_id_for(specs, "pool"), specs, "pool", policy.as_dict(),
            path=workdir / f"manifest-{time.monotonic_ns()}.json",
        )
        engine = FarmEngine(
            executor="pool", jobs=jobs, cache=False, policy=policy,
            manifest=manifest, progress=progress,
        )
    else:
        raise ValueError(f"unknown dispatch {workload.dispatch!r}")
    points = engine.run(specs)
    wall = time.perf_counter() - start
    stats = engine.stats
    return Round(
        wall_s=wall,
        outcomes=[Outcome.from_point(s, p) for s, p in zip(specs, points)],
        point_s=[p.wall_s for p in points],
        point_end=[ends.get(p.label, start + wall) for p in points],
        cache_hits=stats.cache_hits,
        retries=getattr(stats, "retries", 0),
        worker_deaths=stats.worker_deaths,
        checkpoint_s=manifest.checkpoint_s if manifest is not None else 0.0,
    )


def measure_setup(workload: Workload, jobs: int,
                  workdir: Path) -> Tuple[List[float], float]:
    """One set-up of the whole workload, in two parts: the host seconds of
    building each point (network, NICs, processors, traffic drivers) with
    a zero-cycle horizon, and, for an engine, its pool start-up: a warm-up
    round of one zero-cycle point per worker (0.0 in-process)."""
    gc.collect()
    per_point = []
    for spec in workload.specs:
        start = time.perf_counter()
        run_experiment(fresh(spec, run_cycles=0))
        per_point.append(time.perf_counter() - start)
    pool_s = 0.0
    if workload.dispatch != IN_PROCESS:
        warm = [fresh(s, run_cycles=0) for s in workload.specs[:jobs]]
        pool_s = run_round(workload, jobs, workdir, warm).wall_s
    return per_point, pool_s


# ------------------------------------------------------------ the run


@dataclass
class Report:
    """What :func:`run` hands back: the result line and its printout."""

    result: Dict
    lines: List[str]
    problems: List[str]


def _operations(own: Sequence[Dict], fails: Sequence[int],
                repeats: int) -> Tuple[int, int]:
    """``(attempted, failed)`` operations over ``repeats`` timed repeats of
    every point: points, packets sent and RPC rounds; failed points, and
    the abandoned packets and RPC rounds given up of the points that did
    not fail (as the own-kernel run counts them)."""
    attempted = failed = 0
    for doc, point_fails in zip(own, fails):
        attempted += repeats
        failed += point_fails
        figs = doc["figures"]
        if figs is not None:
            ok = repeats - point_fails
            attempted += ok * (figs["sent"] + figs["rpc_rounds"])
            failed += ok * (figs["abandoned"] + figs["rounds_given_up"])
    return attempted, failed


def _end_to_end(own, fails, rounds: List[Round], setup_s: float,
                setups: int, per_point_setup, attempted: int,
                failed: int) -> Tuple[Dict, List[str]]:
    figs = [doc["figures"] for doc, point_fails in zip(own, fails)
            if not point_fails and doc["figures"] is not None]
    point_s = [s for rnd in rounds for s in rnd.point_s]
    kcycles_per_s = [
        outcome.cycles / 1000.0 / max(s - per_point_setup[i], 1e-9)
        for rnd in rounds
        for i, (s, outcome) in enumerate(zip(rnd.point_s, rnd.outcomes))
        if outcome.error is None]
    # Each point's median over the rounds, so that a burst of host noise
    # in one round cannot move the median across the gap between the
    # modes' point times.
    point_medians = [statistics.median(times)
                     for times in zip(*(rnd.point_s for rnd in rounds))]
    iters = [f["iteration_cycles"] for f in figs
             if f["iteration_cycles"] is not None]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "sim_kcycles_per_s": geomean(kcycles_per_s),
        "point_s_p50": statistics.median(point_medians),
        "point_s_tail": tail(point_s),
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": 1.0 - failed / attempted,
        "sim_delivered_per_kcycle": geomean(
            [1000.0 * ratio(f["delivered"], f["cycles"]) for f in figs]),
        "sim_latency_mean_cycles": ratio(
            sum(f["latency_total"] for f in figs),
            sum(f["latency_count"] for f in figs)),
        "sim_latency_p99_cycles": geomean(
            [p99(f) for f in figs if f["latency_count"]]),
        "sim_cycles_per_iter": statistics.fmean(iters) if iters else 0.0,
    }
    notes = {
        "setup_s": f"median build + median pool start-up of {setups} "
                   "set-ups",
        "wall_s": f"median of {len(rounds)} rounds",
        "sim_kcycles_per_s": f"geometric mean of {len(kcycles_per_s)} points",
        "point_s_p50": f"median of {len(point_medians)} point medians, "
                       f"n={len(point_s)}",
        "point_s_tail": f"p{TAIL_PERCENTILE}, n={len(point_s)}",
        "success_ratio": f"fail_ratio={failed / attempted:.6g}: "
                         f"{failed} of {attempted} operations failed",
        "sim_latency_mean_cycles": f"{sum(f['latency_count'] for f in figs)} "
                                   "packets",
        "sim_delivered_per_kcycle": f"geometric mean of {len(figs)} points",
        "sim_latency_p99_cycles": f"geometric mean of {len(figs)} points",
        "sim_cycles_per_iter": f"mean of {len(iters)} points",
    }
    lines = [
        f"  {name:26s} {values[name]:>14.6g} {unit:12s}"
        + (f" ({notes[name]})" if name in notes else "")
        for name, unit in END_TO_END.items()
    ]
    return values, lines


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path, smoke: bool = False) -> Report:
    """Run one workload for ``seconds`` and return its report."""
    workload = build(workload_name, seed, smoke=smoke)
    jobs = nproc()
    host = host_stamp()
    lines = [
        f"simbench {workload.name} seed={seed} trace={int(trace)} "
        f"points={len(workload.specs)} dispatch={workload.dispatch} "
        f"jobs={jobs}",
        "host: " + " ".join(f"{k}={v}" for k, v in host.items()),
    ]
    workspace = root / ".simbench"
    workspace.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workspace) as tmp:
        workdir = Path(tmp)
        references = in_workers(reference_point, workload.specs, jobs)
        own = in_workers(own_point, workload.specs, jobs)
        verdict = Verdict()
        verdict.check_repeats(
            references, [[Outcome(**doc["outcome"]) for doc in own]],
            engine=False)
        if trace:
            metrics, attempted, failed = _traced(
                workload, seed, seconds, jobs, workdir, references, own,
                verdict, host, workspace)
            lines.extend(
                f"  {name:30s} {metrics[name]:>14.6g} {unit}"
                for name, unit in PER_LAYER.items())
        else:
            builds, pools = [], []
            rounds: List[Round] = []
            need = min_rounds(len(workload.specs))
            # A round starts only if the rounds are likely to end near
            # ``seconds``.  The set-ups are measured between the rounds,
            # so that they sample the host over the whole run as the
            # rounds do: a host's speed drifts over seconds.
            while len(rounds) < need or (sum(r.wall_s for r in rounds)
                                         < seconds - rounds[-1].wall_s / 2):
                for _ in range(SETUPS_PER_ROUND):
                    each, pool_s = measure_setup(workload, jobs, workdir)
                    builds.append(each)
                    pools.append(pool_s)
                gc.collect()
                rounds.append(run_round(workload, jobs, workdir))
            per_point_setup = [statistics.median(c) for c in zip(*builds)]
            setup_s = (statistics.median(sum(b) for b in builds)
                       + statistics.median(pools))
            fails = verdict.check_repeats(
                references, [r.outcomes for r in rounds],
                engine=workload.dispatch != IN_PROCESS)
            for rnd in rounds:
                verdict.check_cache(rnd.cache_hits)
            attempted, failed = _operations(own, fails, len(rounds))
            metrics, metric_lines = _end_to_end(
                own, fails, rounds, setup_s, len(builds), per_point_setup,
                attempted, failed)
            lines.extend(metric_lines)
        units = PER_LAYER if trace else END_TO_END
    lines.append(
        f"outputs check: {'ok' if verdict.correct else 'FAILED'} "
        f"({verdict.points} points checked, {verdict.failed_points} failed, "
        f"digests held to the heap kernel)")
    result = {
        "correct": verdict.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return Report(result, lines, verdict.problems)


# ---------------------------------------------------------- traced run


def _traced(workload: Workload, seed: int, seconds: float, jobs: int,
            workdir: Path, references, own, verdict: Verdict, host: Dict,
            workspace: Path) -> Tuple[Dict, int, int]:
    """The per-layer split: ``(metrics, attempted, failed)``.  One
    untraced round is the overhead baseline; an engine workload dispatches
    it through its engine.  Then every point runs in-process under
    ``cProfile`` in traced rounds for ``seconds``.  Event counts come from
    the untimed own-kernel run ``own``."""
    specs = workload.specs
    engine = workload.dispatch != IN_PROCESS
    spans = Spans()
    rollup: Dict[str, float] = {}

    with spans.span("untraced-round") as round_id:
        base = spans.now() - time.perf_counter()
        cpu = time.process_time()
        untraced = run_round(workload, jobs, workdir)
        if engine:
            # cProfile cannot watch an engine: forked workers would
            # inherit the profiler.  The parent's CPU seconds for the
            # round (dispatch, pickling, checkpoints) are charged to the
            # engine's package.
            rollup["farm" if workload.dispatch == FARM else "experiments"] = (
                time.process_time() - cpu)
            for spec, wall, end in zip(specs, untraced.point_s,
                                       untraced.point_end):
                spans.add("point", round_id, base + end - wall, base + end,
                          label=spec.label)
    fails = verdict.check_repeats(references, [untraced.outcomes],
                                  engine=engine)
    verdict.check_cache(untraced.cache_hits)

    stats: Optional[pstats.Stats] = None
    traced_s = 0.0
    repeats = []
    counters: Dict[str, float] = {}
    rounds = 0
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds += 1
        outcomes = []
        with spans.span("round", index=rounds) as round_id:
            for spec in specs:
                with spans.span("point", round_id, label=spec.label) as pid:
                    profile = cProfile.Profile()
                    start = spans.now()
                    outcome, result, seconds_run = run_point(
                        fresh(spec), profile)
                    traced_s += seconds_run
                    point = pstats.Stats(profile)
                    # The set-up span is the profiled time of the network
                    # build and the NIC attach inside the run.
                    setup = (cumulative_s(point, "networks", "build_network")
                             + cumulative_s(point, "networks", "attach_nics"))
                    spans.add("setup", pid, start, start + setup)
                    spans.add("simulate", pid, start + setup,
                              start + seconds_run)
                    with spans.span("verify", pid):
                        outcomes.append(outcome)
                        if rounds == 1 and result is not None:
                            _add(counters, result_counters(result))
                        del result
                    stats = point if stats is None else stats.add(point)
        repeats.append(outcomes)
    fails = [a + b for a, b in zip(
        fails, verdict.check_repeats(references, repeats, engine=False))]
    attempted, failed = _operations(own, fails, rounds + 1)
    events = sum(doc["events"] for doc in own)

    for package, secs in self_time_by_package(stats).items():
        rollup[package] = rollup.get(package, 0.0) + secs / rounds

    metrics = {f"{p}.self_s": rollup.get(p, 0.0) for p in PACKAGES + (OTHER,)}
    metrics.update({
        "links.flits": counters["links.flits"],
        "links.busy_share": ratio(counters["links.busy_cycles"],
                                  counters["links.link_cycles"]),
        "links.packets_dropped": counters["links.packets_dropped"],
        "routers.flits_forwarded": counters["routers.flits_forwarded"],
        "networks.build_s": cumulative_s(
            stats, "networks", "build_network") / rounds,
        "sim.events": events,
        "sim.us_per_event": 1e6 * ratio(metrics["sim.self_s"], events),
        "node.busy_share": ratio(counters["node.busy_cycles"],
                                 counters["node.node_cycles"]),
        "traffic.rounds_given_up": counters["traffic.rounds_given_up"],
        "nic.attach_s": cumulative_s(
            stats, "networks", "attach_nics") / rounds,
        "nic.goodput_ratio": ratio(counters["nic.packets_accepted"],
                                   counters["nic.packets_injected"]),
        "nic.source_wait_mean_cycles": (
            ratio(counters["nic.total_latency"], counters["nic.total_count"])
            - ratio(counters["nic.network_latency"],
                    counters["nic.network_count"])),
        "experiments.dispatch_s": (
            untraced.wall_s - sum(untraced.point_s) / (jobs if engine else 1)),
        "experiments.cache_hits": untraced.cache_hits,
        "farm.checkpoint_s": untraced.checkpoint_s,
        "farm.retries": untraced.retries,
        "farm.worker_deaths": untraced.worker_deaths,
        "trace.overhead_ratio": ratio(traced_s / rounds, sum(untraced.point_s)),
    })
    for name in ("nic.packets_injected", "nic.acks_sent", "nic.bulk_grants",
                 "nic.bulk_rejects", "nic.retransmissions",
                 "nic.duplicates_dropped", "nic.coll_retransmits",
                 "obs.bus_events", "validate.violations"):
        metrics[name] = counters[name]

    out = workspace / f"trace-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "host": host,
        "rounds": rounds, "spans": spans.records,
        "self_s_by_package": rollup, "counters": counters,
        "metrics": metrics,
    }, indent=1, sort_keys=True) + "\n")
    return metrics, attempted, failed


def _add(into: Dict[str, float], counts: Dict[str, float]) -> None:
    for name, value in counts.items():
        into[name] = into.get(name, 0) + value
