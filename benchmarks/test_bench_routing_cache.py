"""Benchmark — the incremental routing engine's cache and repair wins.

Measures, per fat-tree instance:

* **cold vs warm** ``compute_routing``: the first call pays the full
  O(n * E) all-pairs BFS sweep; the second call must serve everything from
  the versioned cache (zero sweeps — asserted through the cache counters);
* **repair vs full**: post-link-failure path compute with the incremental
  BFS repair and table refill (asserted ``fill == "refill"``) against a
  cold from-scratch recompute of the same degraded fabric.

Results are written to ``BENCH_routing_cache.json`` at the repo root so
the perf trajectory is tracked across commits. Scaled instances by
default; ``REPRO_PAPER_SCALE=1`` runs the paper-sized fabrics (see
docs/PERFORMANCE.md for expected magnitudes).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.fabric.node import Switch
from repro.fabric.presets import paper_fattree
from repro.fabric.topology import TopologyMutation
from repro.sm.subnet_manager import SubnetManager

#: {instance_label: {metric: value}} accumulated across the module.
RESULTS = {}


@pytest.fixture(scope="module")
def cache_instances(bench_fattrees):
    """Fig. 7 instances plus the 3-level *paper-profile* fabrics.

    The scaled default twins top out at 180 switches; the cache/repair
    story is only credible if the warm and repair speedups hold at the
    paper's 3-level sizes too (972 and 1620 switches), so those rows are
    always measured here even when the rest of the session runs scaled.
    """
    instances = list(bench_fattrees)
    have = {built.topology.num_switches for _, built, _ in instances}
    for nodes in (5832, 11664):
        built = paper_fattree(nodes)
        if built.topology.num_switches not in have:
            instances.append((f"paper-{nodes}", built, nodes))
    return instances


_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_routing_cache.json",
)


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _configured_sm(built, engine: str = "minhop") -> SubnetManager:
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    return sm


def _inter_switch_link(topology):
    for link in topology.links:
        a, b = link.ends
        if isinstance(a.node, Switch) and isinstance(b.node, Switch):
            return link
    raise RuntimeError("no inter-switch link")


def test_cold_vs_warm_compute(benchmark, cache_instances):
    for label, built, _ in cache_instances:
        sm = SubnetManager(built.topology, engine="minhop", built=built)
        sm.assign_lids()
        t0 = time.perf_counter()
        sm.compute_routing()
        cold = time.perf_counter() - t0
        before = sm.routing_state.stats.snapshot()
        warm = _best_of(sm.compute_routing)
        delta = sm.routing_state.stats.delta_since(before)
        # The headline property, asserted where it is measured: a warm
        # cache performs zero BFS sweeps.
        assert delta["bfs_sweeps"] == 0
        assert delta["misses"] == 0
        entry = RESULTS.setdefault(label, {})
        entry["num_switches"] = built.topology.num_switches
        entry["cold_compute_s"] = cold
        entry["warm_compute_s"] = warm
        entry["warm_speedup"] = cold / warm if warm > 0 else float("inf")
    # Stable pytest-benchmark statistics on the smallest instance.
    _, built, _ = cache_instances[0]
    sm = _configured_sm(built)
    benchmark.pedantic(sm.compute_routing, rounds=5, iterations=1)


def test_repair_vs_full_recompute(benchmark, cache_instances):
    for label, built, _ in cache_instances:
        sm = _configured_sm(built)
        n = built.topology.num_switches
        link = _inter_switch_link(built.topology)
        before = sm.routing_state.stats.snapshot()
        t0 = time.perf_counter()
        report = sm.handle_link_failure(link)
        repair_total = time.perf_counter() - t0
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["repairs"] == 1
        assert report.fill == "refill"
        assert delta["sources_repaired"] < n
        repaired_sources = delta["sources_repaired"]
        # Reference: a cold SM computing the same degraded fabric.
        cold_sm = SubnetManager(built.topology, engine="minhop", built=built)
        full = _best_of(cold_sm.compute_routing, reps=1)
        entry = RESULTS.setdefault(label, {})
        entry["repair_path_compute_s"] = sm.current_tables.compute_seconds
        entry["repair_reconfig_total_s"] = repair_total
        entry["full_recompute_s"] = full
        entry["sources_repaired"] = repaired_sources
        entry["sources_total"] = n
        entry["lids_refilled"] = sm.current_tables.metadata["lids_refilled"]
        entry["rows_refilled"] = sm.current_tables.metadata["rows_refilled"]
    _, built, _ = cache_instances[0]
    sm = _configured_sm(built)
    modes = []

    def fail_and_restore():
        # Both halves go through handle_topology_change, so every round
        # starts from an unbroken repair chain, repairs incrementally and
        # refills only the cells the flap touched.
        removal = TopologyMutation.removing(_inter_switch_link(built.topology))
        for mutation in (removal, removal.restoring()):
            report = sm.handle_topology_change(mutation, verify=False)
            modes.append((report.repair_mode, report.fill))

    benchmark.pedantic(fail_and_restore, rounds=3, iterations=1)
    assert modes and set(modes) == {("incremental", "refill")}


def test_write_results(benchmark):
    """Persist the measurements (runs last: files sort after the others)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not RESULTS:
        pytest.skip("no measurements collected")
    with open(_OUT_PATH, "w") as fh:
        json.dump(RESULTS, fh, indent=2, sort_keys=True)
    print(f"\nwrote {_OUT_PATH}")
    for label, entry in RESULTS.items():
        if "warm_speedup" in entry:
            print(
                f"  {label}: cold {entry['cold_compute_s']:.4f}s,"
                f" warm {entry['warm_compute_s']:.6f}s"
                f" ({entry['warm_speedup']:.0f}x);"
                f" repaired {entry.get('sources_repaired', '?')}/"
                f"{entry.get('sources_total', '?')} sources"
            )
