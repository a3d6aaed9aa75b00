"""The array audit passes against their pure-Python oracles.

``verify_delivery`` and ``verify_sm_consistency`` classify whole port
matrices at once; these tests hold them to the reports of the per-cell
loops in :mod:`tests.analysis.reference_audit` — same failures in the same
order, same counts — on healthy fabrics and under random LFT corruption.
The CDG half pins the 1-D dependency deduplication and the Kahn gate in
front of the tuple cycle finder: same pairs, same findings text.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import LFT_UNSET
from repro.fabric.builders.generic import (
    build_ring,
    build_single_switch,
    build_torus_2d,
)
from repro.fabric.node import Switch
from repro.fabric.presets import scaled_fattree
from repro.obs import reset_hub
from repro.sm.deadlock import routing_dependencies
from repro.sm.subnet_manager import SubnetManager
from repro.analysis.static import analyze_subnet, analyze_transition
from repro.analysis.static import checks, suite
from repro.analysis.static.checks import FabricSnapshot, _dependency_pairs
from repro.analysis.verification import (
    verify_delivery,
    verify_sm_consistency,
    verify_subnet,
)
from tests.analysis.reference_audit import (
    reference_consistency_failures,
    reference_dependency_pairs,
    reference_verify_delivery,
)
from tests.conftest import make_cloud

#: (builder, engine) per preset family the property test corrupts.
PRESETS = {
    "fattree": (lambda: scaled_fattree("2l-small"), "minhop"),
    "ring": (lambda: build_ring(6, 2), "updn"),
    "torus": (lambda: build_torus_2d(3, 4, 1), "updn"),
}

CORRUPTIONS = (
    "clear",
    "wrong_port",
    "hca_port",
    "unconnected_port",
    "two_switch_loop",
    "delivery_port",
    "self_lid",
)


def bring_up(builder, engine):
    reset_hub()
    built = builder()
    sm = SubnetManager(built.topology, built=built, engine=engine)
    sm.initial_configure()
    return sm


def assert_matches_oracle(sm, sample_every):
    topology = sm.topology
    got = verify_delivery(topology, sample_every=sample_every)
    want = reference_verify_delivery(topology, sample_every=sample_every)
    assert got.failures == want.failures
    assert got.lids_checked == want.lids_checked
    assert got.switches_checked == want.switches_checked
    consistency = verify_sm_consistency(sm, static=False)
    assert consistency.failures == reference_consistency_failures(sm)
    assert consistency.lids_checked == len(topology.bound_lids())
    assert consistency.switches_checked == topology.num_switches
    full = verify_subnet(sm, sample_every=sample_every)
    assert full.failures == want.failures + consistency.failures
    assert full.lids_checked == want.lids_checked
    assert full.switches_checked == want.switches_checked


def _ports_by_kind(sw):
    """(switch-cabled, HCA-cabled, free) port numbers of one switch."""
    to_switch, to_hca, free = [], [], []
    for num, port in sorted(sw.ports.items()):
        if not port.is_connected:
            free.append(num)
        elif isinstance(port.remote.node, Switch):
            to_switch.append(num)
        else:
            to_hca.append(num)
    return to_switch, to_hca, free


def corrupt(choose, topology, kind):
    """Apply one *kind* of LFT corruption; ``choose(seq)`` picks each
    element."""
    switches = topology.switches
    lid = choose(topology.bound_lids())
    sw = choose(switches)
    to_switch, to_hca, free = _ports_by_kind(sw)
    if kind == "clear":
        sw.lft.clear(lid)
    elif kind == "wrong_port":
        sw.lft.set(lid, choose(to_switch))
    elif kind == "hca_port":
        target = choose([s for s in switches if _ports_by_kind(s)[1]])
        target.lft.set(lid, choose(_ports_by_kind(target)[1]))
    elif kind == "unconnected_port":
        sw.lft.set(lid, choose(free or [sw.num_ports + 1]))
    elif kind == "two_switch_loop":
        # Point the next hop of sw for this LID straight back at sw.
        port = sw.ports.get(sw.lft.get(lid))
        if port is not None and port.is_connected:
            peer = port.remote
            if isinstance(peer.node, Switch):
                peer.node.lft.set(lid, peer.num)
    elif kind == "delivery_port":
        terminal = choose(topology.terminals())
        dest = switches[terminal.switch_index]
        dest_switch, dest_hca, _ = _ports_by_kind(dest)
        dest.lft.set(
            terminal.lid,
            choose([p for p in dest_switch + dest_hca if p != terminal.switch_port]),
        )
    elif kind == "self_lid":
        sw.lft.set(choose(sorted(topology.switch_lids())), choose(to_switch + to_hca))
    else:  # pragma: no cover - callers only pass CORRUPTIONS
        raise AssertionError(kind)


class TestDeliveryAndConsistencyOracle:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("sample_every", [1, 2, 3, 4])
    def test_healthy_fabric(self, preset, sample_every):
        sm = bring_up(*PRESETS[preset])
        assert_matches_oracle(sm, sample_every)
        assert verify_subnet(sm, sample_every=sample_every).failures == []

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_lft_corruption(self, data):
        preset = data.draw(st.sampled_from(sorted(PRESETS)))
        sm = bring_up(*PRESETS[preset])
        kinds = data.draw(
            st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=4)
        )
        for kind in kinds:
            corrupt(lambda seq: data.draw(st.sampled_from(seq)), sm.topology, kind)
        assert_matches_oracle(sm, data.draw(st.integers(1, 4)))

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_each_corruption_is_reported(self, kind):
        """Every corruption kind, applied everywhere it can be, fails the
        audit exactly like the oracle (so none is a silent no-op)."""
        sm = bring_up(*PRESETS["fattree"])
        topology = sm.topology
        rng = np.random.default_rng(CORRUPTIONS.index(kind))
        for _ in range(6):
            corrupt(lambda seq: seq[int(rng.integers(len(seq)))], topology, kind)
        assert_matches_oracle(sm, 1)
        assert not verify_subnet(sm).ok

    def test_cloud_with_vf_lids_after_migrations(self, small_fattree):
        cloud = make_cloud(small_fattree, lid_scheme="dynamic", num_vfs=3)
        vm = cloud.boot_vm(on="l0h0")
        cloud.live_migrate(vm.name, "l4h4")
        sw = cloud.sm.topology.switches[5]
        sw.lft.clear(cloud.sm.topology.bound_lids()[-1])
        assert_matches_oracle(cloud.sm, 1)
        assert_matches_oracle(cloud.sm, 3)

    def test_lids_past_recorded_top_lid_read_unset(self, small_fattree):
        """A hardware entry for a LID the recorded tables do not cover is a
        mismatch against LFT_UNSET, as ``RoutingTables.port_for`` reads."""
        sm = bring_up(lambda: small_fattree, "minhop")
        top = sm.current_tables.top_lid
        port = sm.topology.hcas[0].port(1)
        sm.topology.bind_lid(top + 5, port)
        attach = port.remote
        attach.node.lft.set(top + 5, attach.num)
        failures = verify_sm_consistency(sm, static=False).failures
        assert failures == reference_consistency_failures(sm)
        assert (
            f"LID {top + 5} at {attach.node.name}:"
            f" hardware={attach.num} recorded={LFT_UNSET}"
        ) in failures


# -- CDG path ------------------------------------------------------------------


CDG_PRESETS = {
    "2l-small/minhop": (lambda: scaled_fattree("2l-small"), "minhop"),
    "3l-small/ftree": (lambda: scaled_fattree("3l-small"), "ftree"),
    "ring6/minhop": (lambda: build_ring(6, 1), "minhop"),
    "torus4x4/minhop": (lambda: build_torus_2d(4, 4, 1), "minhop"),
    "torus4x4/updn": (lambda: build_torus_2d(4, 4, 1), "updn"),
}


class TestDependencyPairs:
    @pytest.mark.parametrize("preset", sorted(CDG_PRESETS))
    def test_same_pairs_as_two_column_unique(self, preset):
        sm = bring_up(*CDG_PRESETS[preset])
        snap = FabricSnapshot.from_topology(sm.topology)
        for cols in (snap.terminal_lids, snap.lids):
            got_f, got_t = _dependency_pairs(snap, cols)
            want_f, want_t = reference_dependency_pairs(snap, cols)
            assert got_f.dtype == got_t.dtype == np.int64
            np.testing.assert_array_equal(got_f, want_f)
            np.testing.assert_array_equal(got_t, want_t)

    @pytest.mark.parametrize("preset", sorted(CDG_PRESETS))
    def test_healthy_pairs_are_the_routing_dependencies(self, preset):
        sm = bring_up(*CDG_PRESETS[preset])
        snap = FabricSnapshot.from_topology(sm.topology)
        n = snap.num_switches
        got_f, got_t = _dependency_pairs(snap, snap.terminal_lids)
        deps = routing_dependencies(
            snap.ports, snap.view, snap.terminal_lids.tolist()
        )
        assert {
            ((f // n, f % n), (t // n, t % n))
            for f, t in zip(got_f.tolist(), got_t.tolist())
        } == deps

    def test_no_dependencies(self):
        sm = bring_up(lambda: build_single_switch(4), "minhop")
        snap = FabricSnapshot.from_topology(sm.topology)
        got_f, got_t = _dependency_pairs(snap, snap.terminal_lids)
        assert got_f.size == got_t.size == 0


def _cdg_findings(report):
    rules = {"CDG001", "CDG002", "VLC001", "VLC004"}
    return [f.render() for f in report.findings if f.rule in rules]


def _ungate(monkeypatch):
    """Send every dependency set to the tuple CDG, as before the gate."""
    monkeypatch.setattr(checks, "_kahn_acyclic", lambda keys, c: False)


class TestKahnGate:
    """Findings are the pre-gate ones: same cycle, same counts."""

    def test_ring6_minhop(self, monkeypatch):
        def findings():
            sm = bring_up(lambda: build_ring(6, 1), "minhop")
            return _cdg_findings(analyze_subnet(sm, emit_metrics=False))

        expected = [
            "CDG001 [sw 0/r0] routing is deadlock-prone: channel dependency"
            " cycle (0->1) -> (1->2) -> (2->3) -> (3->4) -> (4->5) -> (5->0)"
            " (12 channels, 12 dependencies analysed)"
        ]
        assert findings() == expected
        _ungate(monkeypatch)
        assert findings() == expected

    @pytest.mark.parametrize(
        "engine,inject,corrupt_vl,expected",
        [
            (
                "updn", True, False,
                ["CDG001 [sw 1/r1] routing is deadlock-prone: channel"
                 " dependency cycle (1->2) -> (2->1) (12 channels, 12"
                 " dependencies analysed)"],
            ),
            (
                "lash", True, False,
                ["VLC001 [sw 1/r1] data VL 0 is deadlock-prone: channel"
                 " dependency cycle (1->2) -> (2->1) (11 channels, 11"
                 " dependencies analysed)"],
            ),
            (
                "dfsssp", True, False,
                ["VLC001 [sw 1/r1] data VL 0 is deadlock-prone: channel"
                 " dependency cycle (1->2) -> (2->1) (10 channels, 10"
                 " dependencies analysed)"],
            ),
            ("lash", False, True, []),
            ("dfsssp", False, True, []),
        ],
    )
    def test_check_fabric_negative_cases(
        self, monkeypatch, engine, inject, corrupt_vl, expected
    ):
        """The ``check-fabric --preset ring6 --inject-fault`` and
        ``--corrupt-vl`` cells, gated and ungated."""
        case = suite.FabricCheckCase(preset="ring6", engine=engine)
        gated = suite.run_case(
            case, inject_fault=inject, corrupt_vl=corrupt_vl,
            emit_metrics=False,
        )
        assert not gated.ok
        assert _cdg_findings(gated.report) == expected
        _ungate(monkeypatch)
        ungated = suite.run_case(
            case, inject_fault=inject, corrupt_vl=corrupt_vl,
            emit_metrics=False,
        )
        assert [f.render() for f in ungated.report.findings] == [
            f.render() for f in gated.report.findings
        ]

    @pytest.mark.parametrize("engine", ["lash", "dfsssp"])
    def test_collapsed_lanes_pinned(self, engine):
        sm = bring_up(lambda: build_ring(6, 1), engine)
        suite.corrupt_vl_assignment(sm, mode="collapse")
        assert _cdg_findings(analyze_subnet(sm, emit_metrics=False)) == [
            "VLC001 [sw 0/r0] data VL 0 is deadlock-prone: channel dependency"
            " cycle (0->1) -> (1->2) -> (2->3) -> (3->4) -> (4->5) -> (5->0)"
            " (12 channels, 12 dependencies analysed)"
        ]

    TRANSITIONS = [
        ("ring6", "minhop", "updn", [
            "CDG002 [sw 0/r0] reconfiguration transition is deadlock-prone:"
            " channel dependency cycle (0->1) -> (1->2) -> (2->3) -> (3->4)"
            " -> (4->5) -> (5->0) (12 channels, 12 dependencies analysed)"
        ]),
        ("ring6", "updn", "dfsssp", [
            "VLC004 [sw 0/r0] reconfiguration transition on data VL 0 is"
            " deadlock-prone: channel dependency cycle (0->5) -> (5->4) ->"
            " (4->3) -> (3->2) -> (2->1) -> (1->0) (12 channels, 11"
            " dependencies analysed)"
        ]),
        ("torus4x4", "minhop", "updn", [
            "CDG002 [sw 11/m2-3] reconfiguration transition is"
            " deadlock-prone: channel dependency cycle (11->7) -> (7->4) ->"
            " (4->5) -> (5->9) -> (9->10) -> (10->11) (63 channels, 149"
            " dependencies analysed)"
        ]),
        ("torus4x4", "lash", "dfsssp", [
            "VLC004 [sw 0/m0-0] reconfiguration transition on data VL 0 is"
            " deadlock-prone: channel dependency cycle (0->1) -> (1->5) ->"
            " (5->4) -> (4->0) (64 channels, 115 dependencies analysed)",
            "VLC004 [sw 7/m1-3] reconfiguration transition on data VL 1 is"
            " deadlock-prone: channel dependency cycle (7->3) -> (3->15) ->"
            " (15->11) -> (11->7) (57 channels, 76 dependencies analysed)",
        ]),
    ]

    @pytest.mark.parametrize("preset,old,new,expected", TRANSITIONS)
    def test_transitions_pinned(self, monkeypatch, preset, old, new, expected):
        builder = {
            "ring6": lambda: build_ring(6, 1),
            "torus4x4": lambda: build_torus_2d(4, 4, 1),
        }[preset]
        old_tables = bring_up(builder, old).current_tables
        sm = bring_up(builder, new)
        new_tables = sm.current_tables

        def findings():
            return _cdg_findings(
                analyze_transition(
                    sm.topology,
                    old_tables.ports,
                    new_tables.ports,
                    old_metadata=old_tables.metadata,
                    new_metadata=new_tables.metadata,
                    emit_metrics=False,
                )
            )

        assert findings() == expected
        _ungate(monkeypatch)
        assert findings() == expected
