"""LASH routing (LAyered SHortest path).

LASH guarantees deadlock freedom on arbitrary topologies by assigning each
source/destination *switch pair* to a virtual layer such that every layer's
channel dependency graph stays acyclic; paths themselves are plain shortest
paths. The layer search tries each existing layer in turn (with an
acyclicity test per attempt) and opens a new one on failure — an
O(pairs x layers x CDG) procedure that makes LASH by far the slowest engine
in the paper's Fig. 7 (39145 s at 11664 nodes vs 67 s for MinHop).

Destination-based LFTs force all sources' paths to one destination to form
an in-tree, so we derive per-destination BFS trees first and the pair
(s, t) path is the tree path — exactly how OpenSM's LASH keeps LFT
consistency.

The in-trees come from the frontier-vectorized
:func:`repro.fabric.graph.bfs_tree` kernel and the per-pair layer search
runs against :class:`~repro.sm.routing.cdg_array.ArrayCdg` — the
pair-by-pair structure (the paper's LASH cost model) is kept, with the
per-pair acyclicity bookkeeping on integer arrays. A pure-Python deque-BFS
and tuple-CDG engine in ``tests/sm/reference_engines.py`` is the test
oracle; the two produce byte-identical tables and VL assignments
(tests/sm/test_vectorized_identity.py).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.fabric.graph import bfs_tree
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)
from repro.sm.routing.cdg_array import ArrayCdg, channel_ids, channel_table
from repro.sm.routing.vl import VlAssignment

__all__ = ["LashRouting"]


class LashRouting(RoutingAlgorithm):
    """Shortest-path routing with per-(src,dst) virtual-layer assignment."""

    name = "lash"

    def __init__(self, max_vls: int = 8) -> None:
        if max_vls < 1:
            raise RoutingError("need at least one virtual lane")
        self.max_vls = max_vls

    def compute(self, request: RoutingRequest) -> RoutingTables:
        view = request.view
        ports = self._empty_tables(request)
        self._program_local_entries(ports, request)

        # Per-destination-switch BFS in-trees: nxt[t][s] = next-hop switch,
        # and every LID terminating at t leaves s through the tree port.
        dest_groups = request.dest_groups()
        trees: Dict[int, np.ndarray] = {}
        for t in dest_groups:
            nxt, port_arr = self._tree(view, t)
            trees[t] = nxt
            rows = np.flatnonzero(nxt >= 0)
            cols = np.asarray(dest_groups[t], dtype=np.int64)
            ports[rows[:, None], cols[None, :]] = port_arr[rows][:, None]

        # Layer assignment per (source, destination) switch pair. Traffic
        # originates at hosts and terminates at hosts, so only pairs of
        # terminal-bearing (leaf) switches need data-VL layering; paths to
        # switch self-LIDs carry management traffic on VL15 (as in
        # :mod:`repro.sm.routing.dfsssp`).
        terminal_switches = sorted({t.switch_index for t in request.terminals})
        pair_to_vl = self._assign_layers(view, trees, terminal_switches)
        num_vls_used = max(pair_to_vl.values(), default=0) + 1

        return RoutingTables(
            algorithm=self.name,
            ports=ports,
            num_vls=num_vls_used,
            metadata={
                "pair_to_vl": pair_to_vl,
                "vl": VlAssignment(
                    kind="pair",
                    num_vls=num_vls_used,
                    max_vls=self.max_vls,
                    pair_to_vl=pair_to_vl,
                ),
            },
        )

    @staticmethod
    def _tree(view, dest: int) -> Tuple[np.ndarray, np.ndarray]:
        """BFS in-tree toward *dest*: (next_hop_switch, out_port) per switch."""
        nxt, port_arr, dist = bfs_tree(view, dest)
        if (dist < 0).any():
            raise RoutingError("switch graph is disconnected")
        return nxt, port_arr

    def _assign_layers(
        self,
        view,
        trees: Dict[int, np.ndarray],
        terminal_switches: List[int],
    ) -> Dict[Tuple[int, int], int]:
        """Virtual layer of every (source, destination) switch pair.

        Each pair takes the first layer whose channel dependency graph
        stays acyclic with the pair's tree path added.
        """
        n = view.num_switches
        table = channel_table(view)
        # "kahn" mode = a full acyclicity test per pair attempt, the
        # published LASH cost model (and what keeps it Fig. 7's slowest).
        layers = [
            ArrayCdg(len(table), mode="kahn") for _ in range(self.max_vls)
        ]
        pair_to_vl: Dict[Tuple[int, int], int] = {}
        for t in terminal_switches:
            nxt = trees[t]
            # Channel id of the tree hop out of each switch, as a plain
            # list for the pointer-chasing pair loop below.
            hop_nodes = np.flatnonzero(nxt >= 0)
            cid_arr = np.full(n, -1, dtype=np.int64)
            cid_arr[hop_nodes] = channel_ids(
                table, hop_nodes, nxt[hop_nodes], n
            )
            nxt_l = nxt.tolist()
            cid_l = cid_arr.tolist()
            for s in terminal_switches:
                if s == t:
                    continue
                chain: List[int] = []
                cur = s
                while cur != t:
                    chain.append(cid_l[cur])
                    cur = nxt_l[cur]
                d1 = np.asarray(chain[:-1], dtype=np.int64)
                d2 = np.asarray(chain[1:], dtype=np.int64)
                for vl, cdg in enumerate(layers):
                    if cdg.try_add(d1, d2):
                        pair_to_vl[(s, t)] = vl
                        break
                else:
                    raise RoutingError(
                        f"LASH exceeded {self.max_vls} layers at pair {(s, t)}"
                    )
        return pair_to_vl
