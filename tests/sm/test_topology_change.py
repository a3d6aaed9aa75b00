"""SubnetManager.handle_topology_change: the converge-and-verify flow.

Each live mutation must (a) repair paths incrementally when the event
chain allows, (b) distribute only the changed LFT blocks, (c) replicate
the mutation to hot standbys through the HA journal, and (d) pass the
full subnet audit afterwards.
"""

import pytest

from repro.errors import TopologyError
from repro.fabric.presets import scaled_fattree
from repro.fabric.topology import TopologyMutation
from repro.mad.reliable import RetryPolicy
from repro.obs import get_hub, reset_hub
from repro.sm.ha import HighAvailabilityManager, SmHaState
from repro.sm.routing.base import RoutingRequest
from repro.sm.routing.registry import create_engine
from repro.sm.subnet_manager import SubnetManager
from repro.sm.traps import FabricEventManager


@pytest.fixture(autouse=True)
def _fresh_hub():
    reset_hub()
    yield
    reset_hub()


def make_sm(engine="minhop"):
    built = scaled_fattree("2l-small")
    sm = SubnetManager(built.topology, engine=engine, built=built)
    sm.initial_configure(with_discovery=False)
    return built, sm


def spine_pair(built):
    """Two spines with free ports (spines are never cabled together in
    the preset, so an added cable between them is a genuine new edge)."""
    spines = [
        sw for sw in built.roots if next(sw.free_ports(), None) is not None
    ]
    return spines[0], spines[1]


def add_link_mutation(built):
    a, b = spine_pair(built)
    return TopologyMutation(
        kind="add_link",
        a=a.name,
        port_a=next(a.free_ports()).num,
        b=b.name,
        port_b=next(b.free_ports()).num,
    )


def cold_ports(built, engine):
    request = RoutingRequest.from_topology(built.topology, built=built)
    return create_engine(engine).compute(request).ports


class TestIncrementalRepair:
    def test_add_link_repairs_incrementally(self):
        built, sm = make_sm()
        n = built.topology.num_switches
        report = sm.handle_topology_change(add_link_mutation(built))
        assert report.repair_mode == "incremental"
        assert 0 < report.sources_repaired < n
        # The repaired warm tables are byte-identical to a cold compute.
        assert (
            sm.current_tables.ports.tobytes()
            == cold_ports(built, "minhop").tobytes()
        )

    def test_add_link_distributes_only_the_diff(self):
        built, sm = make_sm()
        report = sm.handle_topology_change(add_link_mutation(built))
        # A spine-spine shortcut reroutes a couple of sources, not the
        # whole fabric: the batched LFT diff must skip untouched switches.
        assert 0 < report.distribution.switches_updated
        assert (
            report.distribution.switches_updated
            < built.topology.num_switches
        )

    def test_remove_then_restore_chains_incrementally(self):
        built, sm = make_sm()
        mutation = add_link_mutation(built)
        sm.handle_topology_change(mutation)
        removed = sm.handle_topology_change(
            TopologyMutation(
                kind="remove_link",
                a=mutation.a,
                port_a=mutation.port_a,
                b=mutation.b,
                port_b=mutation.port_b,
            )
        )
        restored = sm.handle_topology_change(
            TopologyMutation(
                kind="restore_link",
                a=mutation.a,
                port_a=mutation.port_a,
                b=mutation.b,
                port_b=mutation.port_b,
            )
        )
        assert removed.repair_mode == "incremental"
        assert restored.repair_mode == "incremental"
        assert (
            sm.current_tables.ports.tobytes()
            == cold_ports(built, "minhop").tobytes()
        )

    def test_add_switch_converges_and_assigns_a_lid(self):
        built, sm = make_sm()
        a, b = spine_pair(built)
        report = sm.handle_topology_change(
            TopologyMutation(
                kind="add_switch",
                a="grown0",
                num_ports=4,
                cables=(
                    (1, a.name, next(a.free_ports()).num),
                    (2, b.name, next(b.free_ports()).num),
                ),
            )
        )
        sw = built.topology.node("grown0")
        assert sw.lid is not None
        assert report.repair_mode == "incremental"
        assert (
            sm.current_tables.ports.tobytes()
            == cold_ports(built, "minhop").tobytes()
        )

    def test_remove_switch_with_hcas_is_refused(self):
        built, sm = make_sm()
        leaf = next(
            sw
            for sw in built.topology.switches
            if sw.attached_hcas()
        )
        with pytest.raises(TopologyError):
            sm.handle_topology_change(
                TopologyMutation(kind="remove_switch", a=leaf.name)
            )

    def test_mutation_counters_are_labelled_by_kind(self):
        built, sm = make_sm()
        sm.handle_topology_change(add_link_mutation(built))
        metrics = get_hub().metrics
        assert (
            metrics.counter(
                "repro_topology_mutations_total", kind="add_link"
            ).value
            == 1
        )
        assert (
            metrics.counter(
                "repro_routing_repair_mode_total", mode="incremental"
            ).value
            == 1
        )


class TestHaReplication:
    def build_ha(self):
        built, sm = make_sm()
        sm.enable_resilience(RetryPolicy(retries=1), transactional=True)
        ha = HighAvailabilityManager(sm, lease_misses=2)
        hcas = built.topology.hcas
        ha.register(hcas[0].name, guid=10, priority=10)
        ha.register(hcas[1].name, guid=20, priority=5)
        ha.bootstrap()
        return built, sm, ha

    def test_mutation_is_journaled_and_mirrored_to_standbys(self):
        built, sm, ha = self.build_ha()
        mutation = add_link_mutation(built)
        sm.handle_topology_change(mutation)
        entries = [
            e for e in ha.journal.entries_since(0) if e.kind == "topology"
        ]
        assert len(entries) == 1
        assert TopologyMutation.from_dict(entries[0].payload) == mutation
        standby = next(
            p for p in ha.participants() if p.state is SmHaState.STANDBY
        )
        replica = ha.replica(standby.node_name)
        assert replica.topology_mutations == [mutation.as_dict()]

    def test_failover_after_mutation_converges(self):
        built, sm, ha = self.build_ha()
        sm.handle_topology_change(add_link_mutation(built))
        ha.kill_master()
        report = None
        while report is None:
            report = ha.tick()
        assert ha.has_master
        from repro.analysis.verification import verify_subnet

        verify_subnet(sm).raise_if_failed()


def first_spine_cable(built):
    spine = built.roots[0]
    return next(p.link for p in spine.connected_ports())


class TestFailureHandlersAreTopologyChanges:
    """The link/switch failure handlers and the trap manager's link_up
    delegate to handle_topology_change, so they share its bookkeeping."""

    def test_failures_reach_the_ha_journal(self):
        built, sm, ha = TestHaReplication().build_ha()
        link = first_spine_cable(built)
        end_a, end_b = link.ends
        spec = (end_a.node.name, end_a.num, end_b.node.name, end_b.num)
        sm.handle_link_failure(link)
        FabricEventManager(sm).link_up(*spec)
        sm.handle_switch_failure(built.roots[1])
        standby = next(
            p for p in ha.participants() if p.state is SmHaState.STANDBY
        )
        kinds = [
            m["kind"] for m in ha.replica(standby.node_name).topology_mutations
        ]
        assert kinds == ["remove_link", "restore_link", "remove_switch"]

    def test_failures_are_counted_as_mutations(self):
        built, sm = make_sm()
        link = first_spine_cable(built)
        end_a, end_b = link.ends
        spec = (end_a.node, end_a.num, end_b.node, end_b.num)
        FabricEventManager(sm).link_down(link)
        FabricEventManager(sm).link_up(*spec)
        sm.handle_switch_failure(built.roots[1])
        metrics = get_hub().metrics
        for kind in ("remove_link", "restore_link", "remove_switch"):
            counter = metrics.counter("repro_topology_mutations_total", kind=kind)
            assert counter.value == 1, kind

    def test_switch_failure_drops_the_switch_from_built_level(self):
        built, sm = make_sm()
        victim = built.roots[0]
        assert victim.name in built.level
        sm.handle_switch_failure(victim)
        assert victim.name not in built.level
        assert set(built.level) == {sw.name for sw in built.topology.switches}
