"""The benchmark's four workloads.

Each workload builds its fabric in :meth:`Workload.setup`, runs a seeded,
fixed number of operations in :meth:`Workload.run` and returns an
:class:`Outcome`. The operation count is ``--seconds`` times a nominal
rate, so a run measures about that long on a 2-core x86 box while every
deterministic quantity (SMPs, simulated time, failure counts) repeats
exactly for the same seed and ``--seconds``. The program only sees the
generated requests: the benchmark keeps its own view of tenants, VMs and
free VFs and reads program state only to check the program's answers.
Times are read off :data:`hostclock.clock`, which scales wall time to the
host's reference speed while a measured run has it started.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.fabric.node import Switch
from repro.fabric.presets import paper_fattree
from repro.fabric.topology import TopologyMutation
from repro.service import ControlPlaneService
from repro.sm.subnet_manager import SubnetManager
from repro.virt.cloud import CloudManager

from hostclock import clock


@dataclass
class Outcome:
    """What one pass of a workload's operations did."""

    attempted: int = 0
    completed: int = 0
    #: Wall latency of each completed operation.
    latencies_s: List[float] = field(default_factory=list)
    #: Wall time spent inside the program's entry points.
    busy_s: float = 0.0
    smps: int = 0
    sim_s: float = 0.0
    #: Operations that did not complete, by cause.
    failures: Counter = field(default_factory=Counter)
    #: Correctness problems found while running.
    problems: List[str] = field(default_factory=list)
    #: Routing-cache counter increments over the pass.
    routing: Dict[str, int] = field(default_factory=dict)
    #: Queue wait of each completed request (tenant-mix only).
    waits_s: List[float] = field(default_factory=list)
    #: Switches each completed migration updated, n' (migrate-storm only).
    n_prime: List[int] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "Outcome") -> None:
        """Fold a later chunk of the same operation stream into this one."""
        self.attempted += other.attempted
        self.completed += other.completed
        self.latencies_s += other.latencies_s
        self.busy_s += other.busy_s
        self.smps += other.smps
        self.sim_s += other.sim_s
        self.failures.update(other.failures)
        self.problems += other.problems
        for key, value in other.routing.items():
            self.routing[key] = self.routing.get(key, 0) + value
        self.waits_s += other.waits_s
        self.n_prime += other.n_prime
        self.extras.update(other.extras)


def _transport_delta(sm: SubnetManager, before) -> Tuple[int, float]:
    delta = sm.transport.stats.delta_since(before)
    return delta.total_smps, delta.serial_time


class Workload:
    """One named workload; subclasses fill in the fabric and the loop."""

    name = ""
    fabric = ""
    scheme = ""
    engine = "minhop"
    #: Operations per requested second (sized on a 2-core x86 box).
    ops_per_second = 1.0
    #: The operations run in this many chunks, each followed by a timed
    #: audit; ``verify_s`` is the audits' median. Spreading the short
    #: measurements over the whole run keeps them steady on a noisy host.
    chunks = 1
    #: Set-ups per run; the operations run on the last, and ``setup_s``
    #: is their median.
    setup_reps = 3
    #: ``verify_subnet(sample_every=...)`` of the audits.
    audit_sample_every = 1

    def num_ops(self, seconds: float) -> int:
        return max(1, round(seconds * self.ops_per_second))

    def setup(self, seed: int) -> Tuple[Any, Optional[float]]:
        """Build the workload's state; returns ``(state, boot_s)``.

        The state holds the seeded request generator, so successive
        :meth:`run` calls continue one operation stream.
        """
        raise NotImplementedError

    def second_pass(self, state: Any, seed: int) -> Optional[Any]:
        """State for the traced pass after an untraced one, or None for a
        fresh :meth:`setup`."""
        return None

    def run(self, state: Any, n_ops: int) -> Outcome:
        """Run the next *n_ops* operations."""
        raise NotImplementedError

    def audited_sm(self, state: Any) -> SubnetManager:
        raise NotImplementedError

    def layer_metrics(self, state: Any, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
        """The service layer's per-layer figures as ``{name: (value, unit)}``;
        0 on workloads without a service."""
        service = getattr(state, "service", None)
        stats = service.stats if service is not None else None
        waits = outcome.waits_s
        return {
            "service.queue_wait_p50_ms": (
                statistics.median(waits) * 1e3 if waits else 0.0, "ms"),
            "service.coalescing_ratio": (
                stats.coalescing_ratio if stats else 0.0, "ratio"),
            "service.smp_coalescing_ratio": (
                stats.smp_coalescing_ratio if stats else 0.0, "ratio"),
            "service.rejected": (outcome.failures["rejected"], "count"),
            "service.failed.capacity": (outcome.failures["capacity"], "count"),
            "service.failed.other": (outcome.failures["other"], "count"),
            "service.timed_out": (outcome.failures["timed_out"], "count"),
        }

    def check(self, state: Any, outcome: Outcome) -> List[str]:
        """Untimed correctness checks after the last audit."""
        return []


# -- tenant-mix ----------------------------------------------------------------


@dataclass
class _TenantState:
    cloud: CloudManager
    service: ControlPlaneService
    rng: random.Random
    #: Client-side view: each tenant's VMs, and its next VM serial.
    vms: Dict[str, List[str]]
    serial: Counter = field(default_factory=Counter)


class TenantMix(Workload):
    """Closed-loop multi-tenant requests through the control-plane service."""

    name = "tenant-mix"
    fabric = "paper-324"
    scheme = "dynamic"
    ops_per_second = 1000.0
    chunks = 10
    setup_reps = 5
    #: Four times the service's default batch size, so every sweep is full.
    tenants = 32
    #: Op weights once a tenant has a VM; boot and stop are matched so the
    #: population stays well below the 1296 VFs.
    weights = {"boot": 3, "stop": 3, "migrate": 2}

    def setup(self, seed):
        built = paper_fattree(324)
        cloud = CloudManager(
            built.topology, built=built, lid_scheme="dynamic", num_vfs=4
        )
        cloud.adopt_all_hcas()
        t0 = clock()
        cloud.bring_up_subnet()
        boot_s = clock() - t0
        vms: Dict[str, List[str]] = {f"tenant{i:02d}": [] for i in range(self.tenants)}
        state = _TenantState(cloud, ControlPlaneService(cloud), random.Random(seed), vms)
        return state, boot_s

    def audited_sm(self, state):
        return state.cloud.sm

    def run(self, state, n_ops):
        """Submit *n_ops* more requests and drain them."""
        rng, vms, serial = state.rng, state.vms, state.serial
        service = state.service
        sm = state.cloud.sm
        out = Outcome()
        before = sm.transport.stats.snapshot()
        routing_before = sm.routing_state.stats.snapshot()
        tenants = list(vms)
        # tenant -> (request id, op, vm name, submit start, submit end)
        pending: Dict[str, Tuple[str, str, str, float, float]] = {}
        ops = list(self.weights)
        weights = list(self.weights.values())
        for _ in range(100 * n_ops):
            if out.attempted >= n_ops and not pending:
                break
            for tenant in tenants:
                if tenant in pending or out.attempted >= n_ops:
                    continue
                op = rng.choices(ops, weights)[0] if vms[tenant] else "boot"
                if op == "boot":
                    serial[tenant] += 1
                    name = f"{tenant}-vm{serial[tenant]}"
                else:
                    name = rng.choice(vms[tenant])
                t0 = clock()
                response = service.submit(tenant, op, name=name)
                t1 = clock()
                out.busy_s += t1 - t0
                out.attempted += 1
                if response.status == "accepted":
                    pending[tenant] = (response.request_id, op, name, t0, t1)
                    continue
                out.failures["rejected"] += 1
                if response.retry_after_s is None:
                    out.problems.append(
                        f"{response.request_id}: {response.status} without retry_after_s"
                    )
            t0 = clock()
            service.pump()
            t1 = clock()
            out.busy_s += t1 - t0
            for tenant, (rid, op, name, s0, s1) in list(pending.items()):
                response = service.response_for(rid)
                if response is None:
                    continue
                del pending[tenant]
                if response.status == "completed":
                    out.completed += 1
                    out.latencies_s.append(t1 - s0)
                    out.waits_s.append(t0 - s1)
                    if op == "boot":
                        vms[tenant].append(name)
                    elif op == "stop":
                        vms[tenant].remove(name)
                elif response.status == "timed_out":
                    out.failures["timed_out"] += 1
                elif "no free VF" in response.detail or response.detail.startswith("capacity:"):
                    out.failures["capacity"] += 1
                else:
                    out.failures["other"] += 1
        else:
            out.problems.append(f"{len(pending)} accepted requests never answered")
        if service.pending_accounted() != 0:
            out.problems.append(
                f"service ledger off by {service.pending_accounted()}"
            )
        out.smps, out.sim_s = _transport_delta(sm, before)
        out.routing = sm.routing_state.stats.delta_since(routing_before)
        out.extras["vms_running"] = state.cloud.running_vm_count
        out.extras["vf_capacity"] = state.cloud.total_capacity
        return out


# -- migrate-storm -------------------------------------------------------------


@dataclass
class _StormState:
    cloud: CloudManager
    #: Benchmark-side view: VM -> hypervisor, hypervisor -> free VFs.
    host: Dict[str, str]
    free: Dict[str, int]
    rng: random.Random


class MigrateStorm(Workload):
    """Seeded live migrations under the prepopulated LID scheme (LID swaps)."""

    name = "migrate-storm"
    fabric = "paper-324"
    scheme = "prepopulated"
    ops_per_second = 250.0
    chunks = 4

    def setup(self, seed):
        built = paper_fattree(324)
        cloud = CloudManager(built.topology, built=built)
        cloud.adopt_all_hcas()
        t0 = clock()
        cloud.bring_up_subnet()
        boot_s = clock() - t0
        # Half the VF capacity, every hypervisor half full.
        half = cloud.num_vfs // 2
        host: Dict[str, str] = {}
        for hyp in cloud.hypervisors:
            for i in range(half):
                name = f"{hyp}-vm{i}"
                cloud.boot_vm(name, on=hyp)
                host[name] = hyp
        free = {hyp: cloud.num_vfs - half for hyp in cloud.hypervisors}
        return _StormState(cloud, host, free, random.Random(seed)), boot_s

    def audited_sm(self, state):
        return state.cloud.sm

    def run(self, state, n_ops):
        rng = state.rng
        cloud = state.cloud
        sm = cloud.sm
        reconfigurer = cloud.scheme.reconfigurer
        out = Outcome()
        before = sm.transport.stats.snapshot()
        routing_before = sm.routing_state.stats.snapshot()
        names = sorted(state.host)
        hypervisors = sorted(state.free)
        for _ in range(n_ops):
            vm_name = rng.choice(names)
            source = state.host[vm_name]
            dest = rng.choice(
                [h for h in hypervisors if h != source and state.free[h] > 0]
            )
            dest_vf = cloud.hypervisors[dest].vswitch.first_free_vf()
            predicted = reconfigurer.predict_swap(cloud.vms[vm_name].lid, dest_vf.lid)
            out.attempted += 1
            t0 = clock()
            report = cloud.live_migrate(vm_name, dest)
            dt = clock() - t0
            out.busy_s += dt
            if report.outcome != "completed":
                out.failures[report.outcome] += 1
                out.problems.append(f"{vm_name} -> {dest}: {report.outcome} ({report.failure})")
                continue
            out.completed += 1
            out.latencies_s.append(dt)
            out.n_prime.append(report.switches_updated)
            actual = (report.switches_updated, report.reconfig.lft_smps)
            if actual != predicted:
                out.problems.append(
                    f"{vm_name} -> {dest}: (n', LFT SMPs) {actual} != predict_swap {predicted}"
                )
            if cloud.vms[vm_name].hypervisor_name != dest:
                out.problems.append(f"{vm_name} is not on {dest} after migrating")
            state.host[vm_name] = dest
            state.free[source] += 1
            state.free[dest] -= 1
        out.smps, out.sim_s = _transport_delta(sm, before)
        out.routing = sm.routing_state.stats.delta_since(routing_before)
        return out


# -- cold-boot -----------------------------------------------------------------


class ColdBoot(Workload):
    """paper-5832 cold bring-up: discover, LIDs, routing, distribution."""

    name = "cold-boot"
    fabric = "paper-5832"
    scheme = "none"
    #: A 0.1 s set-up; many keep its median steady.
    setup_reps = 15

    def num_ops(self, seconds):
        return 1

    def setup(self, seed):
        built = paper_fattree(5832)
        sm = SubnetManager(built.topology, engine=self.engine, built=built)
        # The seed picks the host the SM runs on.
        sm.transport.set_sm_node(random.Random(seed).choice(built.topology.hcas))
        return sm, None

    def audited_sm(self, state):
        return state

    def run(self, sm, n_ops):
        """One boot of the set-up fabric, whatever *n_ops*."""
        t0 = clock()
        sm.discover()
        sm.assign_lids()
        sm.compute_routing()
        sm.distribute()
        dt = clock() - t0
        return Outcome(
            attempted=1, completed=1, latencies_s=[dt], busy_s=dt,
            smps=sm.transport.stats.total_smps,
            sim_s=sm.transport.stats.serial_time,
            routing=dict(vars(sm.routing_state.stats)),
        )


# -- rewire --------------------------------------------------------------------


@dataclass
class _RewireState:
    sm: SubnetManager
    built: Any
    #: Every inter-switch cable as (switch, port, switch, port), sorted so
    #: the seeded choice does not depend on link-list order.
    cables: List[Tuple[str, int, str, int]]
    rng: random.Random
    repair_modes: Counter = field(default_factory=Counter)


class Rewire(Workload):
    """Link flaps on a configured paper-5832 fabric (incremental repair)."""

    name = "rewire"
    fabric = "paper-5832"
    scheme = "none"
    #: One flap (a remove and a restore) at --seconds 10.
    ops_per_second = 0.2
    setup_reps = 1
    #: Every 8th source switch in the delivery walk; the consistency check
    #: and the static pass still cover every switch and LID.
    audit_sample_every = 8

    def num_ops(self, seconds):
        return 2 * max(1, round(seconds * self.ops_per_second / 2))

    def setup(self, seed):
        built = paper_fattree(5832)
        sm = SubnetManager(built.topology, engine=self.engine, built=built)
        t0 = clock()
        sm.initial_configure()
        boot_s = clock() - t0
        cables = sorted(
            (a.node.name, a.num, b.node.name, b.num)
            for a, b in (link.ends for link in built.topology.links)
            if isinstance(a.node, Switch) and isinstance(b.node, Switch)
        )
        return _RewireState(sm, built, cables, random.Random(seed)), boot_s

    def second_pass(self, state, seed):
        # Every flap restores its cable, so the fabric is back where it
        # was; replay the same flaps on it.
        state.rng = random.Random(seed)
        return state

    def audited_sm(self, state):
        return state.sm

    def run(self, state, n_ops):
        rng = state.rng
        sm = state.sm
        out = Outcome()
        before = sm.transport.stats.snapshot()
        routing_before = sm.routing_state.stats.snapshot()
        for _ in range(n_ops // 2):
            a, pa, b, pb = rng.choice(state.cables)
            for kind in ("remove_link", "restore_link"):
                mutation = TopologyMutation(kind=kind, a=a, port_a=pa, b=b, port_b=pb)
                out.attempted += 1
                t0 = clock()
                report = sm.handle_topology_change(mutation, verify=False)
                dt = clock() - t0
                out.busy_s += dt
                out.completed += 1
                out.latencies_s.append(dt)
                state.repair_modes[report.repair_mode] += 1
        out.smps, out.sim_s = _transport_delta(sm, before)
        out.routing = sm.routing_state.stats.delta_since(routing_before)
        out.extras["repair_modes"] = dict(state.repair_modes)
        return out

    def check(self, state, outcome):
        """Warm LFTs must equal a cold recompute on the final topology."""
        sm = state.sm
        cold = SubnetManager(sm.topology, engine=self.engine, built=state.built)
        cold_ports = cold.compute_routing().ports
        problems = []
        if sm.current_tables.ports.tobytes() != cold_ports.tobytes():
            problems.append("warm routing tables differ from a cold recompute")
        width = cold_ports.shape[1]
        for sw in sm.topology.switches:
            hw = sw.lft.as_array()
            row = cold_ports[sw.index]
            if (
                hw[:width].astype(row.dtype).tobytes() != row.tobytes()
                or (hw[width:] != LFT_UNSET).any()
            ):
                problems.append(f"{sw.name}: hardware LFT differs from a cold recompute")
        return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (TenantMix(), MigrateStorm(), ColdBoot(), Rewire())
}


def percentile_with_tail(samples: List[float], q: float) -> Optional[float]:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if not samples:
        return None
    value = float(np.percentile(samples, q))
    return value if sum(1 for s in samples if s > value) >= 10 else None

