"""Per-layer accounting for the traced run: spans, self time, counters.

Everything is measured from outside the simulator: spans are recorded
around the benchmark's own calls into public APIs, self time comes from
``cProfile`` rolled up to the ``repro`` package that owns each function,
and counters are read from public attributes of the result objects.
"""

from __future__ import annotations

import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional

#: The ``repro`` packages on the run path.  ``report``, ``analysis`` and
#: ``cli`` are off it; their time and all unattributed time is ``other``.
PACKAGES = (
    "sim", "links", "routers", "networks", "nic", "packets", "node",
    "traffic", "metrics", "obs", "validate", "faults", "experiments", "farm",
)
OTHER = "other"


class Spans:
    """In-memory span recorder: name, start, end and parent of each span,
    in seconds since the recorder was made."""

    def __init__(self) -> None:
        self.records: List[Dict] = []
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def add(self, name: str, parent: Optional[int], start: float,
            end: float, **attrs) -> int:
        self.records.append({"id": len(self.records), "name": name,
                             "parent": parent, "start": start, "end": end,
                             **attrs})
        return len(self.records) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             **attrs) -> Iterator[int]:
        sid = self.add(name, parent, self.now(), None, **attrs)
        try:
            yield sid
        finally:
            self.records[sid]["end"] = self.now()


def package_of(filename: str) -> Optional[str]:
    """The run-path ``repro`` package a source file belongs to, if any."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            name = parts[i + 1]
            return name if name in PACKAGES else OTHER
    return None


def self_time_by_package(stats: pstats.Stats) -> Dict[str, float]:
    """Roll profile self time up to packages.  A function outside ``repro``
    (a C builtin, the standard library) is charged to its callers in
    proportion to the time each call edge spent in it, recursively, so a
    builtin called from ``links`` counts as ``links``; what reaches no
    ``repro`` caller is ``other``."""
    table = stats.stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func, seen) -> Dict[str, float]:
        package = package_of(func[0])
        if package is not None:
            return {package: 1.0}
        if func in memo:
            return memo[func]
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if not total:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        if func in seen or not total:
            return {OTHER: 1.0}
        shares: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for package, share in owners(caller, seen | {func}).items():
                shares[package] += share * weight / total
        memo[func] = shares
        return shares

    out: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for package, share in owners(func, frozenset()).items():
            out[package] += tt * share
    return out


def cumulative_s(stats: pstats.Stats, package: str, name: str) -> float:
    """Profiled cumulative seconds of the function ``name`` defined in the
    ``repro`` package ``package``."""
    return sum(
        cumtime
        for (filename, _line, func), (_cc, _nc, _tt, cumtime, _callers)
        in stats.stats.items()
        if func == name and package_of(filename) == package)


def result_counters(result) -> Dict[str, float]:
    """Work counts of one finished in-process run, from public objects."""
    net = result.network_obj
    cycles = max(1, result.cycles)
    nics = result.nics

    def nic_sum(name: str) -> int:
        return sum(getattr(nic, name, 0) for nic in nics)

    engines = [nic.collective for nic in nics
               if getattr(nic, "collective", None) is not None]
    obs = result.obs
    return {
        "links.flits": sum(link.flits_carried for link in net.links),
        "links.busy_cycles": sum(link.busy_cycles for link in net.links),
        "links.link_cycles": len(net.links) * cycles,
        "links.packets_dropped": sum(
            link.packets_dropped for link in net.links),
        "routers.flits_forwarded": sum(
            link.flits_carried
            for router in net.routers for link in router.out_links.values()),
        "node.busy_cycles": sum(p.busy_cycles for p in result.processors),
        "node.node_cycles": len(result.processors) * cycles,
        "traffic.rounds_given_up": sum(
            getattr(d, "rounds_given_up", 0) for d in result.drivers),
        "nic.packets_injected": nic_sum("packets_injected"),
        "nic.packets_accepted": nic_sum("packets_accepted"),
        "nic.acks_sent": nic_sum("acks_sent"),
        "nic.bulk_grants": nic_sum("bulk_grants"),
        "nic.bulk_rejects": nic_sum("bulk_rejects"),
        "nic.retransmissions": nic_sum("retransmissions"),
        "nic.duplicates_dropped": nic_sum("duplicates_dropped"),
        "nic.coll_retransmits": sum(e.coll_retransmits for e in engines),
        "nic.total_latency": result.metrics.total_latency.total,
        "nic.total_count": result.metrics.total_latency.count,
        "nic.network_latency": result.metrics.network_latency.total,
        "nic.network_count": result.metrics.network_latency.count,
        "obs.bus_events": obs.bus.total() if obs is not None
        and obs.bus is not None else 0,
        "validate.violations": len(result.violations),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
