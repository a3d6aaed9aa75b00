"""Pure-Python reference LASH and DFSSSP: the byte-identity oracles.

These are the original engines the array-based production LASH and
DFSSSP replaced. Each subclass overrides only the production engine's
tree, weight and layer hooks with the plain deque-BFS / heapq-Dijkstra /
tuple-CDG formulations, so the shared table filling stays common and
``tests/sm/test_vectorized_identity.py`` compares exactly the parts that
were rewritten.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.sm.deadlock import ChannelDependencyGraph, Dependency
from repro.sm.routing.dfsssp import DFSSSPRouting
from repro.sm.routing.lash import LashRouting

__all__ = ["ReferenceLash", "ReferenceDFSSSP"]


class ReferenceLash(LashRouting):
    """LASH with a deque BFS and a tuple-keyed CDG per layer."""

    @staticmethod
    def _tree(view, dest: int) -> Tuple[np.ndarray, np.ndarray]:
        n = view.num_switches
        nxt = np.full(n, -1, dtype=np.int64)
        port = np.full(n, -1, dtype=np.int32)
        dist = np.full(n, -1, dtype=np.int64)
        dist[dest] = 0
        q = deque([dest])
        while q:
            cur = q.popleft()
            lo, hi = view.indptr[cur], view.indptr[cur + 1]
            for k in range(lo, hi):
                nb = int(view.peer[k])
                if dist[nb] < 0:
                    dist[nb] = dist[cur] + 1
                    nxt[nb] = cur
                    # Forward edge nb->cur uses the reverse port of cur->nb.
                    port[nb] = int(view.in_port[k])
                    q.append(nb)
        if (dist < 0).any():
            raise RoutingError("switch graph is disconnected")
        return nxt, port

    def _assign_layers(
        self,
        view,
        trees: Dict[int, np.ndarray],
        terminal_switches: List[int],
    ) -> Dict[Tuple[int, int], int]:
        layers = [ChannelDependencyGraph() for _ in range(self.max_vls)]
        pair_to_vl: Dict[Tuple[int, int], int] = {}
        for t in terminal_switches:
            nxt = trees[t]
            for s in terminal_switches:
                if s == t:
                    continue
                deps = _path_dependencies(nxt, s, t)
                for vl, cdg in enumerate(layers):
                    if cdg.try_add_dependencies(deps):
                        pair_to_vl[(s, t)] = vl
                        break
                else:
                    raise RoutingError(
                        f"LASH exceeded {self.max_vls} layers at pair {(s, t)}"
                    )
        return pair_to_vl


def _path_dependencies(nxt: np.ndarray, src: int, dest: int) -> List[Dependency]:
    """Dependencies of the tree path src -> dest."""
    chans: List[Tuple[int, int]] = []
    cur = src
    while cur != dest:
        b = int(nxt[cur])
        chans.append((cur, b))
        cur = b
    return [(chans[i], chans[i + 1]) for i in range(len(chans) - 1)]


class ReferenceDFSSSP(DFSSSPRouting):
    """DFSSSP with a heapq Dijkstra, a post-order subtree walk and a
    tuple-keyed CDG per layer."""

    def _sweep(self, request, rev: np.ndarray) -> "_HeapSweep":
        return _HeapSweep(request.view, rev, self.max_vls)


class _HeapSweep:
    """The per-destination tree, weight and layer steps, one switch at a
    time."""

    def __init__(self, view, rev: np.ndarray, max_vls: int) -> None:
        self.view = view
        self.rev = rev
        self.max_vls = max_vls
        self.layers = [ChannelDependencyGraph() for _ in range(max_vls)]

    def tree(self, weights: np.ndarray, dest: int) -> np.ndarray:
        """``parent_edge`` of the (hops, weight)-shortest in-tree toward
        *dest*: per switch, the CSR index of the edge (next hop -> switch)
        on its path (-1 at *dest*). Run from the destination over the
        reversed graph — identical because the graph is symmetric."""
        view = self.view
        n = view.num_switches
        hops = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        dist = np.full(n, np.inf)
        parent_edge = np.full(n, -1, dtype=np.int64)
        hops[dest] = 0
        dist[dest] = 0.0
        heap: List[Tuple[int, float, int]] = [(0, 0.0, dest)]
        done = np.zeros(n, dtype=bool)
        while heap:
            h, d, cur = heapq.heappop(heap)
            if done[cur]:
                continue
            done[cur] = True
            lo, hi = view.indptr[cur], view.indptr[cur + 1]
            for k in range(lo, hi):
                nb = int(view.peer[k])
                if done[nb]:
                    continue
                # Relax the edge nb -> cur (the forward edge out of nb).
                nh, nd = h + 1, d + weights[k]
                if nh < hops[nb] or (nh == hops[nb] and nd < dist[nb]):
                    hops[nb] = nh
                    dist[nb] = nd
                    parent_edge[nb] = k
                    heapq.heappush(heap, (nh, nd, nb))
        if (~done).any():
            raise RoutingError("switch graph is disconnected")
        return parent_edge

    def update_weights(
        self, weights: np.ndarray, dest: int, parent_edge: np.ndarray
    ) -> None:
        """Add each tree edge's subtree size to both cable directions."""
        view, rev = self.view, self.rev
        size = np.ones(view.num_switches, dtype=np.int64)
        for s in _tree_order(view, parent_edge, dest):  # leaves first
            k = parent_edge[s]
            if k < 0:
                continue
            parent = int(view.peer[rev[k]])  # forward edge s->parent
            size[parent] += size[s]
            weights[rev[k]] += size[s]
            weights[k] += size[s]

    def assign_layer(self, parent_edge: np.ndarray) -> int:
        """First layer that stays acyclic with this destination's deps."""
        deps = _tree_dependencies(self.view, parent_edge)
        for vl, cdg in enumerate(self.layers):
            if cdg.try_add_dependencies(deps):
                return vl
        raise RoutingError(
            f"DFSSSP exceeded {self.max_vls} virtual lanes; fabric too twisted"
        )


def _tree_dependencies(view, parent_edge: np.ndarray) -> List[Dependency]:
    """Channel dependencies ((a,b) -> (b,c)) induced by the in-tree.

    ``parent_edge[s]`` encodes the edge parent->s, so the forward next
    hop of ``s`` is that edge's CSR source switch.
    """
    n = view.num_switches
    nxt = np.full(n, -1, dtype=np.int64)
    for s in range(n):
        k = parent_edge[s]
        if k >= 0:
            nxt[s] = _edge_source(view, k)
    out: List[Dependency] = []
    for s in range(n):
        b = int(nxt[s])
        if b < 0:
            continue
        c = int(nxt[b])
        if c < 0:
            continue
        out.append(((s, b), (b, c)))
    return out


def _edge_source(view, edge_idx: int) -> int:
    """The source switch of CSR edge *edge_idx* (binary search on indptr)."""
    return int(np.searchsorted(view.indptr, edge_idx, side="right") - 1)


def _tree_order(view, parent_edge: np.ndarray, dest: int) -> List[int]:
    """Switches ordered children-before-parents along the in-tree."""
    n = view.num_switches
    # The source of edge parent->s is s's parent.
    children: List[List[int]] = [[] for _ in range(n)]
    for s in range(n):
        k = parent_edge[s]
        if k >= 0:
            children[_edge_source(view, k)].append(s)
    # Pre-order from dest puts parents first; reverse for children-first.
    order: List[int] = []
    stack = [dest]
    while stack:
        cur = stack.pop()
        order.append(cur)
        stack.extend(children[cur])
    order.reverse()
    return order
