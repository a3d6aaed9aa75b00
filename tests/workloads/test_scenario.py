"""Tests for the scripted scenario runner."""

import pytest

from repro.fabric.builders.generic import build_mesh_2d
from repro.fabric.presets import scaled_fattree
from repro.obs import get_hub
from repro.workloads.scenario import Scenario
from tests.conftest import make_cloud


def steps(kind=None):
    """Scenario step spans (of one kind, e.g. ``"boot"``), in run order."""
    return [
        sp
        for sp in get_hub().all_spans()
        if sp.name.startswith("scenario_")
        and (kind is None or sp.name == f"scenario_{kind}")
    ]


@pytest.fixture
def scenario():
    built = scaled_fattree("2l-small")
    cloud = make_cloud(built, num_vfs=3, routing_engine="minhop")
    return Scenario(cloud, built, seed=13)


class TestPrimitives:
    def test_boot_traced(self, scenario):
        scenario.boot(count=3)
        assert scenario.summary.boots == 3
        recs = steps("boot")
        assert len(recs) == 3
        assert all("lid" in r.attributes for r in recs)

    def test_stop_traced(self, scenario):
        scenario.boot(count=2)
        scenario.stop(count=1)
        assert scenario.summary.stops == 1
        assert steps("stop")[-1].attributes["vm"]

    def test_migrate_records_costs(self, scenario):
        scenario.boot(count=4)
        scenario.migrate(count=2)
        assert scenario.summary.migrations == 2
        assert scenario.summary.migration_lft_smps > 0
        for rec in steps("migrate"):
            assert rec.attributes["smps"] >= 1
            assert rec.attributes["n_prime"] >= 1
            assert rec.total_lft_smp_count() == rec.attributes["smps"]

    def test_failure_and_repair(self, scenario):
        scenario.boot(count=2)
        assert scenario.fail_random_link()
        assert scenario.summary.failures == 1
        assert scenario.summary.failure_lft_smps > 0
        assert scenario.repair_links() == 1
        assert scenario.summary.repairs == 1

    def test_trace_times_monotone(self, scenario):
        scenario.boot(count=3)
        scenario.migrate(count=1)
        times = [r.start_time for r in steps()]
        assert len(times) == 4
        assert times == sorted(times)

    def test_boot_stops_when_full(self, scenario):
        scenario.boot(count=10_000)
        assert scenario.summary.boots == scenario.cloud.total_capacity


class TestBusinessDay:
    def test_full_script(self, scenario):
        summary = scenario.business_day()
        assert summary.boots > 0
        assert summary.migrations >= 5
        assert summary.failures <= 1
        # Migrations never pay path computation: PCt only for fabric events.
        assert summary.path_computations == summary.failures + summary.repairs
        kinds = {sp.name for sp in steps()}
        assert "scenario_boot" in kinds and "scenario_migrate" in kinds

    def test_reproducible(self):
        built_a = scaled_fattree("2l-small")
        a = Scenario(make_cloud(built_a, num_vfs=3), built_a, seed=99)
        built_b = scaled_fattree("2l-small")
        b = Scenario(make_cloud(built_b, num_vfs=3), built_b, seed=99)
        assert a.business_day().as_dict() == b.business_day().as_dict()

    def test_subnet_consistent_afterwards(self, scenario):
        scenario.business_day()
        cloud = scenario.cloud
        # Every running VM still reachable through the hardware LFTs.
        from repro.sim.dataplane import DataPlaneSimulator

        sim = DataPlaneSimulator(cloud.topology)
        src = cloud.topology.hcas[0].lid
        n = 0
        for vm in cloud.vms.values():
            if vm.is_running and vm.lid != src:
                sim.inject(src, vm.lid)
                n += 1
        stats = sim.run()
        assert stats.delivered == n


class TestLinkEventsStayIncremental:
    """Failure and repair go through the SM's mutation API, so the
    routing cache repairs only the affected BFS trees."""

    def test_repair_does_not_recompute_from_scratch(self, scenario):
        sm = scenario.cloud.sm
        assert scenario.fail_random_link()
        before = sm.routing_state.stats.snapshot()
        assert scenario.repair_links() == 1
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 0
        assert 0 < delta["sources_repaired"] < sm.num_switches

    def test_refused_cut_keeps_the_repair_chain(self):
        # A line of three switches: every cable is a bridge, so each cut
        # is refused and plugged back in.
        built = build_mesh_2d(1, 3, hosts_per_switch=2)
        scenario = Scenario(make_cloud(built, num_vfs=2), built, seed=1)
        sm = scenario.cloud.sm
        before = sm.routing_state.stats.snapshot()
        assert not scenario.fail_random_link()
        assert all(sp.attributes["refused"] for sp in steps("link_failure"))
        sm.compute_routing()
        delta = sm.routing_state.stats.delta_since(before)
        assert delta["full_recomputes"] == 0
