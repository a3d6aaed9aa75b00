"""Benchmark — live topology mutation: incremental repair vs full sweep.

For each fabric scale (``2l-small`` = paper-324 twin, ``2l-wide`` =
648-host twin) the same runtime mutations are driven twice:

* **incremental** — ``SubnetManager.handle_topology_change``: the
  routing cache replays the mutation's repair events, resweeping only
  the affected BFS source trees, MinHop refills only the table cells the
  mutation touched, and the distributor sends only the changed LFT
  blocks;
* **full** — the traditional baseline: the distance cache is dropped,
  every source recomputed and every block resent
  (``full_reconfigure``), exactly what a pre-mechanism SM would pay.

The headline numbers are the repaired-source count (must be a strict
subset of the fabric) and the SMP/wall cost ratio. Results are written
to ``BENCH_rewire.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import TopologyMutation
from repro.sm.subnet_manager import SubnetManager

SCALES = ("2l-small", "2l-wide")

#: {label: {metric: value}} accumulated across the module.
RESULTS = {}

_OUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_rewire.json",
)


def build_sm(scale):
    built = scaled_fattree(scale)
    sm = SubnetManager(built.topology, engine="minhop", built=built)
    sm.initial_configure(with_discovery=False)
    return built, sm


def plan_mutations(built):
    """Deterministic mutation sequence viable at every scale.

    A leaf-spine cable is pulled and then re-plugged (the flap pair
    exercises both the removal- and the addition-side repair
    predicates); where spines still have free ports (2l-small) a
    spine-spine shortcut is added first.
    """
    mutations = []
    spines = [
        sw for sw in built.roots if next(sw.free_ports(), None) is not None
    ]
    if len(spines) >= 2:
        a, b = spines[0], spines[1]
        mutations.append(
            TopologyMutation(
                kind="add_link",
                a=a.name,
                port_a=next(a.free_ports()).num,
                b=b.name,
                port_b=next(b.free_ports()).num,
            )
        )
    leaf = next(sw for sw in built.topology.switches if sw.attached_hcas())
    uplink = next(
        p for p in leaf.connected_ports() if p.remote.node in built.roots
    )
    flap = dict(
        a=leaf.name,
        port_a=uplink.num,
        b=uplink.remote.node.name,
        port_b=uplink.remote.num,
    )
    mutations.append(TopologyMutation(kind="remove_link", **flap))
    mutations.append(TopologyMutation(kind="restore_link", **flap))
    return mutations


def run_incremental(scale):
    built, sm = build_sm(scale)
    stats = sm.transport.stats
    out = []
    for mutation in plan_mutations(built):
        before = stats.snapshot()
        t0 = time.perf_counter()
        report = sm.handle_topology_change(mutation, verify=False)
        wall = time.perf_counter() - t0
        delta = stats.delta_since(before)
        out.append(
            {
                "kind": mutation.kind,
                "repair_mode": report.repair_mode,
                "fill": report.fill,
                "sources_repaired": report.sources_repaired,
                "lft_smps": delta.lft_update_smps,
                "wall_s": wall,
            }
        )
    return sm, out


def run_full(scale):
    """The same mutations through the traditional full-sweep baseline."""
    built, sm = build_sm(scale)
    stats = sm.transport.stats
    out = []
    for mutation in plan_mutations(built):
        sm.apply_topology_mutation(mutation)
        sm.transport.invalidate_distances()
        # Drop the warm distance cache and the kept table: the baseline SM
        # has no repair machinery, every mutation costs a cold all-pairs
        # recompute and a full table fill.
        sm.routing_state._invalidate()
        sm.routing_state.drop_fill_base()
        before = stats.snapshot()
        t0 = time.perf_counter()
        sm.full_reconfigure()
        wall = time.perf_counter() - t0
        delta = stats.delta_since(before)
        out.append(
            {
                "kind": mutation.kind,
                "lft_smps": delta.lft_update_smps,
                "wall_s": wall,
            }
        )
    return sm, out


def test_rewire_incremental_vs_full(benchmark):
    for scale in SCALES:
        sm_inc, incremental = run_incremental(scale)
        sm_full, full = run_full(scale)
        n = sm_inc.topology.num_switches
        # Both arms converge on byte-identical forwarding state.
        assert (
            sm_inc.current_tables.ports.tobytes()
            == sm_full.current_tables.ports.tobytes()
        )
        for inc_entry, full_entry in zip(incremental, full):
            assert inc_entry["kind"] == full_entry["kind"]
            # The acceptance gate: repair touches a strict subset of
            # the fabric's sources, and never costs more SMPs than the
            # full sweep.
            assert inc_entry["repair_mode"] == "incremental"
            assert inc_entry["fill"] == "refill"
            assert 0 < inc_entry["sources_repaired"] < n
            assert inc_entry["lft_smps"] <= full_entry["lft_smps"]
            RESULTS[f"{scale}/{inc_entry['kind']}"] = {
                "scale": scale,
                "num_switches": n,
                "kind": inc_entry["kind"],
                "repair_mode": inc_entry["repair_mode"],
                "fill": inc_entry["fill"],
                "sources_repaired": inc_entry["sources_repaired"],
                "incremental_lft_smps": inc_entry["lft_smps"],
                "full_lft_smps": full_entry["lft_smps"],
                "smp_ratio": (
                    inc_entry["lft_smps"] / full_entry["lft_smps"]
                    if full_entry["lft_smps"]
                    else 0.0
                ),
                "incremental_wall_s": inc_entry["wall_s"],
                "full_wall_s": full_entry["wall_s"],
            }
    benchmark.pedantic(
        lambda: run_incremental("2l-small"), rounds=1, iterations=1
    )


def test_write_results(benchmark):
    """Persist the measurements (runs last: files sort after the others)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not RESULTS:
        pytest.skip("no measurements collected")
    with open(_OUT_PATH, "w") as fh:
        json.dump(RESULTS, fh, indent=2, sort_keys=True)
    print(f"\nwrote {_OUT_PATH}")
    for label, entry in RESULTS.items():
        print(
            f"  {label}: {entry['sources_repaired']}/{entry['num_switches']}"
            f" sources repaired,"
            f" {entry['incremental_lft_smps']} vs"
            f" {entry['full_lft_smps']} LFT SMPs"
            f" ({entry['smp_ratio']:.2f}x),"
            f" wall {entry['incremental_wall_s'] * 1e3:.2f}ms vs"
            f" {entry['full_wall_s'] * 1e3:.2f}ms"
        )
