"""Subnet verification: prove a fabric's hardware state is consistent.

Downstream users (and this repository's own integration tests) need to
answer "is this subnet actually correct right now?" after arbitrary
sequences of migrations, reconfigurations and failures. The checks here
operate on the *switches' LFT contents* — the hardware truth — rather than
any controller bookkeeping:

* every bound LID is deliverable from every switch (loop-free, correct
  final port);
* the hardware LFTs agree with the SM's recorded routing function;
* the full :mod:`repro.analysis.static` pass — CDG deadlock-freedom,
  vectorized reachability, and any engine-specific legality checks —
  whose structured findings ride along in :attr:`VerificationReport
  .findings` and surface through :meth:`VerificationReport
  .raise_if_failed` with per-switch detail.

All three are array passes over the hardware port matrix of
:class:`~repro.analysis.static.checks.FabricSnapshot`. The delivery audit
classifies every (source switch, LID) pair with the static analyzer's
successor iteration and walks hop by hop only the pairs that do not
arrive, so its failure messages and their order are those of a walk over
every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import ReproError
from repro.fabric.topology import Topology
from repro.sm.subnet_manager import SubnetManager
from repro.analysis.static import Finding, analyze_subnet
from repro.analysis.static.checks import (
    _DELIVERED,
    FabricSnapshot,
    _absorb,
    _hardware_ports,
    _successor_matrices,
)

__all__ = ["VerificationReport", "verify_delivery", "verify_sm_consistency", "verify_subnet"]


@dataclass
class VerificationReport:
    """Outcome of a subnet audit."""

    lids_checked: int = 0
    switches_checked: int = 0
    failures: List[str] = field(default_factory=list)
    #: Structured static-analysis findings (CDG cycles, loops, legality).
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff every check passed."""
        return not self.failures and not self.findings

    def problems(self) -> List[str]:
        """Every failure as a string — walk failures plus rendered findings
        (``CDG001 [sw 3/leaf-1, lid 42] ...``, per-switch detail included)."""
        return self.failures + [f.render() for f in self.findings]

    def raise_if_failed(self) -> None:
        """Raise :class:`~repro.errors.ReproError` listing the failures."""
        problems = self.problems()
        if problems:
            raise ReproError(
                f"subnet verification failed ({len(problems)} problems):"
                f" {problems[:5]}"
            )


def _walk(snap: FabricSnapshot, lid: int, start: int) -> Optional[str]:
    """Follow *lid* hop by hop from switch *start*; its failure, if any."""
    ports, p2p, names = snap.ports, snap.port_to_peer(), snap.switch_names
    dest_sw, dest_port = int(snap.dest_switch[lid]), int(snap.dest_port[lid])
    cur = start
    hops = 0
    while True:
        out = int(ports[cur, lid])
        if cur == dest_sw:
            if dest_port != 0 and out != dest_port:
                return f"LID {lid}: wrong delivery port at {names[cur]}"
            return None
        if out == LFT_UNSET:
            return f"LID {lid}: unroutable at {names[cur]}"
        nxt = int(p2p[cur, out])
        if nxt < 0:
            return f"LID {lid}: misdelivered off-fabric at {names[cur]}"
        cur = nxt
        hops += 1
        if hops > snap.num_switches:
            return f"LID {lid}: forwarding loop from {names[start]}"


def verify_delivery(
    topology: Topology, *, sample_every: int = 1
) -> VerificationReport:
    """Check the hardware LFTs deliver every bound LID from every switch.

    ``sample_every`` > 1 checks only every n-th source switch (for large
    fabrics); destinations are always all checked. Failures come LID by
    LID (ascending), source by source within a LID.
    """
    if sample_every < 1:
        raise ReproError("sample_every must be >= 1")
    snap = FabricSnapshot.from_topology(topology)
    n = snap.num_switches
    sources = np.arange(0, n, sample_every)
    report = VerificationReport(
        lids_checked=int(snap.lids.size), switches_checked=int(sources.size)
    )
    if not (snap.lids.size and sources.size):
        return report
    succ, _ = _successor_matrices(snap, snap.lids)
    arrived = _absorb(succ, n)[sources] == n + _DELIVERED
    del succ
    for j, s in zip(*np.nonzero(~arrived.T)):
        failure = _walk(snap, int(snap.lids[j]), int(sources[s]))
        if failure is not None:
            report.failures.append(failure)
    return report


def verify_sm_consistency(
    sm: SubnetManager, *, static: bool = True
) -> VerificationReport:
    """Hardware LFTs must equal the SM's recorded routing for bound LIDs.

    LIDs past the recorded tables' ``top_lid`` count as LFT_UNSET, as in
    :meth:`~repro.sm.routing.base.RoutingTables.port_for`. Failures come
    switch by switch, LID by LID. With ``static=True`` (the default) the
    full :func:`~repro.analysis.static.analyze_subnet` pass also runs over
    the hardware LFTs, attaching its CDG/loop/legality findings to the
    report.
    """
    report = VerificationReport()
    tables = sm.current_tables
    if tables is None:
        report.failures.append("SM has no recorded routing")
        return report
    topology = sm.topology
    n = topology.num_switches
    lids = np.asarray(topology.bound_lids(), dtype=np.int64)
    report.lids_checked = int(lids.size)
    report.switches_checked = n
    hardware = _hardware_ports(topology)[:, lids]
    recorded = np.full(hardware.shape, LFT_UNSET, dtype=tables.ports.dtype)
    inside = lids <= tables.top_lid
    recorded[:, inside] = tables.ports[
        np.arange(n)[:, None], lids[inside][None, :]
    ]
    rows, cols = np.nonzero(hardware != recorded)
    names = [sw.name for sw in topology.switches]
    for s, j, hw, soft in zip(
        rows.tolist(),
        cols.tolist(),
        hardware[rows, cols].tolist(),
        recorded[rows, cols].tolist(),
    ):
        report.failures.append(
            f"LID {int(lids[j])} at {names[s]}: hardware={hw} recorded={soft}"
        )
    if static:
        # Faults only: META notices (e.g. "CDG001 superseded by per-VL
        # checks" on LASH/DFSSSP fabrics) are context, not failures.
        report.findings.extend(
            analyze_subnet(sm, source="hardware").faults
        )
    return report


def verify_subnet(
    sm: SubnetManager, *, sample_every: int = 1, static: bool = True
) -> VerificationReport:
    """Full audit: delivery walk, SM/hardware consistency, static analysis."""
    delivery = verify_delivery(sm.topology, sample_every=sample_every)
    consistency = verify_sm_consistency(sm, static=static)
    merged = VerificationReport(
        lids_checked=delivery.lids_checked,
        switches_checked=delivery.switches_checked,
        failures=delivery.failures + consistency.failures,
        findings=consistency.findings,
    )
    return merged
