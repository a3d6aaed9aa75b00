"""Benchmark-side tracing: wall-clock spans around each layer's public entry points.

Nothing inside ``src/`` is edited. :class:`Tracer` patches each traced
function at the name its caller looks it up under (a class attribute for
methods, a module global for functions that are called through module
globals), records one span per call in memory, and restores every name
on :meth:`Tracer.uninstall`. Spans are written out once, at the end of a
run, by :meth:`Tracer.write`.

A span's *self time* is its duration minus the durations of its direct
children; the process is single-threaded, so children never overlap and
self times partition the time covered by root spans.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.analysis import verification
from repro.constants import LFT_BLOCK_SIZE
from repro.core.migration import LiveMigrationOrchestrator
from repro.core.reconfig import VSwitchReconfigurer
from repro.mad.transport import SmpTransport
from repro.service.journal import IntentJournal
from repro.service.service import ControlPlaneService
from repro.sm.routing.cache import RoutingState
from repro.sm.subnet_manager import SubnetManager
from repro.virt.cloud import CloudManager

#: (span name, owner, attribute). The owner is the object the caller looks
#: the attribute up on, which is where the wrapper has to sit.
#: ``verification.verify_subnet`` calls ``verify_delivery``,
#: ``verify_sm_consistency`` and ``analyze_subnet`` through its module
#: globals, so those are patched in the verification module itself.
TARGETS: Tuple[Tuple[str, Any, str], ...] = (
    ("service.submit", ControlPlaneService, "submit"),
    ("service.pump", ControlPlaneService, "pump"),
    ("service.journal", IntentJournal, "append"),
    ("virt.boot_vms_batch", CloudManager, "boot_vms_batch"),
    ("virt.boot_vm", CloudManager, "boot_vm"),
    ("virt.live_migrate", CloudManager, "live_migrate"),
    ("virt.stop_vm", CloudManager, "stop_vm"),
    ("core.migrate", LiveMigrationOrchestrator, "migrate"),
    ("core.swap_lids", VSwitchReconfigurer, "swap_lids"),
    ("core.copy_path", VSwitchReconfigurer, "copy_path"),
    ("core.copy_paths", VSwitchReconfigurer, "copy_paths"),
    ("mad.send", SmpTransport, "send"),
    ("sm.discover", SubnetManager, "discover"),
    ("sm.assign_lids", SubnetManager, "assign_lids"),
    ("sm.compute_routing", SubnetManager, "compute_routing"),
    ("sm.distribute", SubnetManager, "distribute"),
    ("sm.apply_topology_mutation", SubnetManager, "apply_topology_mutation"),
    ("sm.handle_topology_change", SubnetManager, "handle_topology_change"),
    ("sm.routing.bfs", RoutingState, "distances"),
    ("sm.routing.bfs", RoutingState, "row"),
    ("sm.routing.candidates", RoutingState, "candidates"),
    ("sm.routing.candidates", RoutingState, "prefetch_candidates"),
    ("analysis.verify_subnet", verification, "verify_subnet"),
    ("analysis.verify_delivery", verification, "verify_delivery"),
    ("analysis.verify_sm_consistency", verification, "verify_sm_consistency"),
    ("analysis.static", verification, "analyze_subnet"),
)

#: Every span name a run can record, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._name_ids: Dict[str, int] = {n: i for i, n in enumerate(SPAN_NAMES)}
        self._names: List[int] = []
        self._parents: List[int] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._stack: List[int] = []
        #: Sums of what the wrapped calls returned (SMPs swept, blocks
        #: sent, ...), keyed by metric name.
        self.sums: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point."""
        for name, owner, attr in TARGETS:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids[name]
        observe = _OBSERVERS.get(name)
        names, parents, starts, ends, stack = (
            self._names, self._parents, self._starts, self._ends, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    @property
    def num_spans(self) -> int:
        return len(self._starts)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (seconds)."""
        out = {n: {"calls": 0, "self_s": 0.0} for n in SPAN_NAMES}
        if not self._starts:
            return out
        names = np.asarray(self._names)
        parents = np.asarray(self._parents)
        duration = np.asarray(self._ends, dtype=np.int64) - np.asarray(
            self._starts, dtype=np.int64
        )
        has_parent = parents >= 0
        child_ns = np.bincount(
            parents[has_parent],
            weights=duration[has_parent],
            minlength=len(duration),
        )
        self_ns = duration - child_ns
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_by_name = np.bincount(names, weights=self_ns, minlength=len(SPAN_NAMES))
        for i, n in enumerate(SPAN_NAMES):
            out[n]["calls"] = int(calls[i])
            out[n]["self_s"] = float(self_by_name[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: run, span, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("run_id,span,name,start_ns,end_ns,parent\n")
            for i, (n, s, e, p) in enumerate(
                zip(self._names, self._starts, self._ends, self._parents)
            ):
                out.write(f"{self.run_id},{i},{SPAN_NAMES[n]},{s},{e},{p}\n")


def _observe_discover(tracer: Tracer, args, result) -> None:
    tracer.sums["sm.discover.smps"] += result.smps_sent


def _observe_distribute(tracer: Tracer, args, result) -> None:
    tables = args[0].current_tables
    tracer.sums["sm.distribute.blocks_sent"] += result.smps_sent
    tracer.sums["sm.distribute.blocks_in_use"] += tables.num_switches * -(
        -tables.ports.shape[1] // LFT_BLOCK_SIZE
    )


_OBSERVERS: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "sm.discover": _observe_discover,
    "sm.distribute": _observe_distribute,
}


def per_layer_metrics(
    tracer: Tracer,
    *,
    routing: Dict[str, int],
    num_switches: int,
    n_prime: List[int],
    service: Dict[str, Tuple[float, str]],
    sim_serial_s: float,
    traced_s: float,
    untraced_s: float,
    covered_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Layers a workload never enters report 0 calls and 0 s. ``routing`` is
    the routing-cache counter delta over the traced pass; ``n_prime`` the
    switches each completed migration updated; ``service`` the workload's
    service-layer metrics; ``sim_serial_s`` the transport's serial SMP time
    over the pass.
    """
    totals = tracer.layer_totals()
    m: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    for name in ("virt.boot_vms_batch", "virt.boot_vm", "virt.live_migrate",
                 "virt.stop_vm", "mad.send"):
        m[f"{name}.calls"] = (totals[name]["calls"], "count")
    m["service.journal.appends"] = (totals["service.journal"]["calls"], "count")
    m["mad.send.sim_serial_s"] = (sim_serial_s, "s")
    m["sm.discover.smps"] = (tracer.sums["sm.discover.smps"], "count")
    blocks = tracer.sums["sm.distribute.blocks_sent"]
    in_use = tracer.sums["sm.distribute.blocks_in_use"]
    m["sm.distribute.blocks_sent"] = (blocks, "count")
    m["sm.distribute.changed_share"] = (blocks / in_use if in_use else 0.0, "share")
    m["core.n_prime_mean"] = (float(np.mean(n_prime)) if n_prime else 0.0, "count")
    m["sm.routing.cache_hits"] = (routing.get("hits", 0), "count")
    m["sm.routing.cache_misses"] = (routing.get("misses", 0), "count")
    m["sm.routing.candidate_misses"] = (routing.get("candidate_misses", 0), "count")
    m["sm.routing.bfs_sweeps"] = (routing.get("bfs_sweeps", 0), "count")
    m["sm.routing.sources_repaired"] = (routing.get("sources_repaired", 0), "count")
    repairs = routing.get("repairs", 0)
    m["sm.routing.repair_share"] = (
        routing.get("sources_repaired", 0) / (repairs * num_switches) if repairs else 0.0,
        "share",
    )
    m.update(service)
    m["trace.spans"] = (tracer.num_spans, "count")
    m["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    m["trace.attributed_share"] = (
        sum(t["self_s"] for t in totals.values()) / covered_s if covered_s else 0.0,
        "share",
    )
    return m
