"""Pure-Python reference audits: the byte-identity oracles of verification.

These are the per-cell loops the array passes of
:mod:`repro.analysis.verification` and :mod:`repro.analysis.static.checks`
replaced: a hop-by-hop walk of every (source switch, bound LID) pair, a
per-(switch, LID) comparison of the hardware LFTs against the SM's
recorded tables, and the two-column ``np.unique(axis=0)`` deduplication
of channel-dependency pairs. ``tests/analysis/test_audit_identity.py``
holds the production passes to their exact output.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import ReproError
from repro.fabric.node import Switch
from repro.fabric.topology import Topology
from repro.analysis.static.checks import FabricSnapshot, _successor_matrices
from repro.analysis.verification import VerificationReport

__all__ = [
    "reference_consistency_failures",
    "reference_dependency_pairs",
    "reference_verify_delivery",
]


def _delivery_map(topology: Topology) -> Dict[int, Tuple[int, int]]:
    """LID -> (destination switch index, delivery port [0 = self])."""
    out: Dict[int, Tuple[int, int]] = {}
    for lid in topology.bound_lids():
        port = topology.port_of_lid(lid)
        assert port is not None
        if isinstance(port.node, Switch) and port.num == 0:
            out[lid] = (port.node.index, 0)
        else:
            attach = port.remote
            if attach is None or not isinstance(attach.node, Switch):
                raise ReproError(f"LID {lid} bound to an unattached port")
            out[lid] = (attach.node.index, attach.num)
    return out


def reference_verify_delivery(
    topology: Topology, *, sample_every: int = 1
) -> VerificationReport:
    """Walk the hardware LFTs: every bound LID from every sampled switch."""
    report = VerificationReport()
    switches = topology.switches
    p2p: Dict[Tuple[int, int], int] = {}
    for sw in switches:
        for port in sw.connected_ports():
            peer = port.remote
            assert peer is not None
            if isinstance(peer.node, Switch):
                p2p[(sw.index, port.num)] = peer.node.index
    targets = _delivery_map(topology)
    sources = switches[::sample_every]
    report.switches_checked = len(sources)
    for lid, (dest_sw, dest_port) in targets.items():
        report.lids_checked += 1
        for start in sources:
            cur = start
            hops = 0
            while True:
                if cur.index == dest_sw:
                    if dest_port != 0 and cur.lft.get(lid) != dest_port:
                        report.failures.append(
                            f"LID {lid}: wrong delivery port at {cur.name}"
                        )
                    break
                out = cur.lft.get(lid)
                if out == LFT_UNSET:
                    report.failures.append(
                        f"LID {lid}: unroutable at {cur.name}"
                    )
                    break
                nxt = p2p.get((cur.index, out))
                if nxt is None:
                    report.failures.append(
                        f"LID {lid}: misdelivered off-fabric at {cur.name}"
                    )
                    break
                cur = switches[nxt]
                hops += 1
                if hops > len(switches):
                    report.failures.append(
                        f"LID {lid}: forwarding loop from {start.name}"
                    )
                    break
    return report


def reference_consistency_failures(sm: object) -> List[str]:
    """Every (switch, bound LID) cell where hardware and recorded differ."""
    tables = sm.current_tables
    failures: List[str] = []
    lids = sm.topology.bound_lids()
    for sw in sm.topology.switches:
        for lid in lids:
            hw = sw.lft.get(lid)
            soft = tables.port_for(sw.index, lid)
            if hw != soft:
                failures.append(
                    f"LID {lid} at {sw.name}: hardware={hw} recorded={soft}"
                )
    return failures


def reference_dependency_pairs(
    snap: FabricSnapshot, cols: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Dependency pairs deduplicated as ``(from, to)`` rows, channels
    encoded ``a * n + b``."""
    n = snap.num_switches
    _, nxt = _successor_matrices(snap, cols)
    nxt = nxt.astype(np.int64)
    col = np.arange(cols.size, dtype=np.int64)[None, :]
    b = nxt
    c = np.where(b >= 0, nxt[np.clip(b, 0, None), col], -1)
    mask = (b >= 0) & (c >= 0)
    if not mask.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    a_idx = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], b.shape)
    from_ch = (a_idx * n + b)[mask]
    to_ch = (b * n + c)[mask]
    pairs = np.unique(np.stack([from_ch, to_ch], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]
