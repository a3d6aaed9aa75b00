"""Scripted datacenter scenarios: churn + migrations + failures, traced.

A :class:`Scenario` is a reproducible sequence of operations against one
cloud — the "day in the life" the paper's introduction sketches (tenants
come and go, the operator consolidates, cables fail). Every step runs in
its own :mod:`repro.obs` span (``scenario_boot``, ``scenario_stop``,
``scenario_migrate``, ``scenario_link_failure``, ``scenario_link_repair``)
whose attributes carry the step's cost, so a run can be audited
afterwards and regression-tested step by step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import TopologyError
from repro.fabric.node import Switch
from repro.fabric.topology import TopologyMutation
from repro.obs.hub import span
from repro.virt.cloud import CloudManager
from repro.workloads.migration_patterns import ANY, MigrationPlanner

__all__ = ["ScenarioSummary", "Scenario"]


@dataclass
class ScenarioSummary:
    """Aggregates of one scenario run."""

    boots: int = 0
    stops: int = 0
    migrations: int = 0
    failures: int = 0
    repairs: int = 0
    migration_lft_smps: int = 0
    failure_lft_smps: int = 0
    path_computations: int = 0  # how many times PCt was ever paid

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for assertions and rendering."""
        return {
            "boots": self.boots,
            "stops": self.stops,
            "migrations": self.migrations,
            "failures": self.failures,
            "repairs": self.repairs,
            "migration_lft_smps": self.migration_lft_smps,
            "failure_lft_smps": self.failure_lft_smps,
            "path_computations": self.path_computations,
        }


class Scenario:
    """A seeded operation script over one cloud."""

    def __init__(self, cloud: CloudManager, built, *, seed: int = 0) -> None:
        self.cloud = cloud
        self.built = built
        self.rng = random.Random(seed)
        self.summary = ScenarioSummary()
        self._planner = MigrationPlanner(cloud, built, seed=seed)
        #: Failed cables awaiting repair, as ``remove_link`` mutations.
        self._downed: List[TopologyMutation] = []

    # -- primitive steps ------------------------------------------------------

    def boot(self, count: int = 1) -> None:
        """Boot *count* VMs on scheduler-chosen nodes (skips when full)."""
        for _ in range(count):
            if not any(
                h.has_capacity() for h in self.cloud.hypervisors.values()
            ):
                return
            with span("scenario_boot") as sp:
                vm = self.cloud.boot_vm()
                sp.set_attributes(
                    vm=vm.name, on=vm.hypervisor_name, lid=vm.lid
                )
            self.summary.boots += 1

    def stop(self, count: int = 1) -> None:
        """Stop *count* random running VMs."""
        for _ in range(count):
            names = [n for n, vm in self.cloud.vms.items() if vm.is_running]
            if not names:
                return
            name = self.rng.choice(names)
            with span("scenario_stop", vm=name):
                self.cloud.stop_vm(name)
            self.summary.stops += 1

    def migrate(self, count: int = 1, distance: str = ANY) -> None:
        """Perform *count* planner-chosen migrations."""
        for _ in range(count):
            plan = self._planner.plan_one(distance)
            if plan is None:
                return
            with span("scenario_migrate") as sp:
                report = self.cloud.live_migrate(*plan)
                sp.set_attributes(
                    vm=report.vm_name,
                    src=report.source,
                    dest=report.destination,
                    smps=report.reconfig.lft_smps,
                    n_prime=report.switches_updated,
                )
            self.summary.migrations += 1
            self.summary.migration_lft_smps += report.reconfig.lft_smps

    def fail_random_link(self) -> bool:
        """Cut one random inter-switch cable (skipped if it would partition).

        Returns True when a failure was injected.
        """
        sm = self.cloud.sm
        links = [
            l
            for l in self.cloud.topology.links
            if isinstance(l.a.node, Switch) and isinstance(l.b.node, Switch)
        ]
        self.rng.shuffle(links)
        for link in links:
            cut = TopologyMutation.removing(link)
            with span("scenario_link_failure", a=cut.a, b=cut.b) as sp:
                try:
                    report = sm.handle_topology_change(cut, verify=False)
                except TopologyError:
                    # Would partition: plug it back and try another. The
                    # restore note pairs with the failure note, so the
                    # next reroute stays an incremental repair.
                    sm.apply_topology_mutation(cut.restoring())
                    sm.transport.invalidate_distances()
                    sp.set_attribute("refused", True)
                    continue
                sp.set_attribute("smps", report.lft_smps)
            self._downed.append(cut)
            self.summary.failures += 1
            self.summary.failure_lft_smps += report.lft_smps
            self.summary.path_computations += 1
            return True
        return False

    def repair_links(self) -> int:
        """Re-cable everything that failed; returns repairs performed."""
        repaired = 0
        while self._downed:
            cut = self._downed.pop()
            with span("scenario_link_repair", a=cut.a, b=cut.b) as sp:
                report = self.cloud.sm.handle_topology_change(
                    cut.restoring(), verify=False
                )
                sp.set_attribute("smps", report.lft_smps)
            self.summary.repairs += 1
            self.summary.path_computations += 1
            repaired += 1
        return repaired

    # -- canned scripts -----------------------------------------------------------

    def business_day(self) -> ScenarioSummary:
        """Morning scale-up, midday churn + a failure, evening consolidation."""
        with span("business_day") as sp:
            with span("morning_scale_up"):
                self.boot(count=self.cloud.total_capacity // 3)
            with span("midday_churn"):
                self.migrate(count=3)
                self.stop(count=2)
                self.boot(count=4)
                self.fail_random_link()
                self.migrate(count=3)
                self.repair_links()
            with span("evening_consolidation"):
                self.stop(count=3)
                self.migrate(count=2)
            sp.set_attributes(**self.summary.as_dict())
        return self.summary
