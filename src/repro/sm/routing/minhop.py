"""MinHop routing — OpenSM's default engine.

Computes all-pairs minimal hop distances on the switch graph, then for every
destination LID picks, at each switch, a neighbour on a minimal path. Equal
cost choices are balanced across LIDs, which is what lets the prepopulated
vSwitch scheme "calculate and use different paths to reach different VMs
hosted by the same hypervisor" (paper section V-A, the LMC-like feature).

Two balancing policies are provided:

* ``"lid-mod"`` (default) — destination-indexed spreading: candidate ports
  are chosen by ``lid % num_candidates``. Deterministic, vectorized, and
  spreads consecutive LIDs over distinct ports. With a shared
  :class:`~repro.sm.routing.cache.RoutingState` the fill is incremental:
  it starts from this engine's last table
  (:class:`~repro.sm.routing.cache.FillBase`) and refills only the dirty
  LID columns and switch rows, so a link flap costs what it changed. A
  cold compute is the same fill with every LID column dirty; it runs
  when there is no base, the switch count or ``top_lid`` changed, a
  switch was added or removed, or the last compute fell back to another
  engine. Either way the table is byte-identical to a cold recompute.
* ``"least-loaded"`` — OpenSM-like greedy: track per (switch, port) path
  counts and pick the least-loaded minimal port. Exact but scalar; intended
  for small fabrics and tests of balancing properties.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.constants import LFT_UNSET
from repro.errors import RoutingError
from repro.sm.routing.base import (
    RoutingAlgorithm,
    RoutingRequest,
    RoutingTables,
)
from repro.sm.routing.cache import FillBase

__all__ = ["MinHopRouting"]


class MinHopRouting(RoutingAlgorithm):
    """Minimal-hop routing with equal-cost balancing."""

    name = "minhop"

    def __init__(self, balance: str = "lid-mod") -> None:
        if balance not in ("lid-mod", "least-loaded"):
            raise RoutingError(f"unknown balance policy {balance!r}")
        self.balance = balance

    def compute(self, request: RoutingRequest) -> RoutingTables:
        # All-pairs distances come from the shared RoutingState when the
        # request carries one: a warm cache turns the O(n * E) sweep into a
        # dictionary hit, and after failures only the repaired rows differ.
        dist = request.switch_distances()
        if (dist < 0).any():
            raise RoutingError("switch graph is disconnected")
        metadata = {"switch_distances": dist, "balance": self.balance}
        if self.balance == "lid-mod":
            ports = self._fill_lid_mod(request, dist, metadata)
        else:
            ports = self._empty_tables(request)
            self._program_local_entries(ports, request)
            self._assign_least_loaded(request, dist, ports, request.dest_groups())
        return RoutingTables(algorithm=self.name, ports=ports, metadata=metadata)

    def _fill_lid_mod(
        self, request: RoutingRequest, dist: np.ndarray, metadata: dict
    ) -> np.ndarray:
        """The lid-mod table: refilled from the kept base, or in full.

        Records ``fill`` (``"refill"``/``"full"``), ``lids_refilled`` and
        ``rows_refilled`` in *metadata*; a full fill counts every LID and
        every row.
        """
        state = request.state
        n = request.num_switches
        key = (self.name, self.balance)
        lid_switch, lid_port = request.lid_endpoints()
        base = (
            state.take_fill_base(key, (n, request.top_lid + 1))
            if state is not None
            else None
        )
        if base is None:
            ports = self._empty_tables(request)
            lids = np.flatnonzero(lid_switch >= 0)
            rows = np.arange(0)
        else:
            ports = base.ports
            lids, rows = base.dirty(dist, request.view, lid_switch, lid_port)
            ports[:, lids] = LFT_UNSET
            ports[rows] = LFT_UNSET
        # Local exits first: of every dirty LID, and of every LID ending
        # on a dirty row. The candidate scatters never touch them (a
        # LID's own switch has no candidates toward itself).
        local = np.zeros(lid_switch.shape[0], dtype=bool)
        local[lids] = True
        if rows.size:
            local |= np.isin(lid_switch, rows)
        self._program_local_entries(ports, request, np.flatnonzero(local))
        self._scatter_lid_mod(request, ports, lids, lid_switch)
        if rows.size:
            all_lids = np.flatnonzero(lid_switch >= 0)
            self._scatter_lid_mod(request, ports, all_lids, lid_switch, rows)
        metadata["fill"] = "full" if base is None else "refill"
        metadata["lids_refilled"] = int(lids.size)
        metadata["rows_refilled"] = n if base is None else int(rows.size)
        if state is None:
            return ports
        state.keep_fill_base(
            FillBase(key, ports, dist, request.view, lid_switch, lid_port)
        )
        return ports.copy()

    @staticmethod
    def _scatter_lid_mod(
        request: RoutingRequest,
        ports: np.ndarray,
        lids: np.ndarray,
        lid_switch: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> None:
        """Write ``lid % num_candidates`` ports for *lids* on *rows* (every
        switch when None); one fancy-indexed scatter per destination."""
        lids = lids[lid_switch[lids] >= 0]
        if not lids.size:
            return
        dests = lid_switch[lids]
        order = np.argsort(dests, kind="stable")
        lids, dests = lids[order], dests[order]
        uniq, starts = np.unique(dests, return_index=True)
        dest_list = uniq.tolist()
        # One batched CSR pass produces every destination's candidates.
        cand_map = request.prefetch_candidates(dest_list, rows)
        row_ids = np.arange(ports.shape[0]) if rows is None else rows
        for dest_sw, group in zip(dest_list, np.split(lids, starts[1:])):
            cand, counts = cand_map[dest_sw]
            pos = np.flatnonzero(counts > 0)
            sel = group[None, :] % counts[pos][:, None]
            ports[np.ix_(row_ids[pos], group)] = cand[pos[:, None], sel]

    def _assign_least_loaded(
        self,
        request: RoutingRequest,
        dist: np.ndarray,
        ports: np.ndarray,
        dest_groups: Dict[int, List[int]],
    ) -> None:
        view = request.view
        n = request.num_switches
        # load[(switch, port)] = number of destination LIDs routed via it.
        load: Dict[tuple, int] = {}
        for dest_sw in sorted(dest_groups):
            lids = sorted(dest_groups[dest_sw])
            col = dist[:, dest_sw]
            for lid in lids:
                for s in range(n):
                    if col[s] <= 0:
                        continue
                    best_port = -1
                    best_load = None
                    lo, hi = view.indptr[s], view.indptr[s + 1]
                    for k in range(lo, hi):
                        nb = int(view.peer[k])
                        if col[nb] != col[s] - 1:
                            continue
                        p = int(view.out_port[k])
                        l = load.get((s, p), 0)
                        if best_load is None or l < best_load:
                            best_load, best_port = l, p
                    if best_port < 0:
                        raise RoutingError(
                            f"no minimal neighbour at switch {s} for {dest_sw}"
                        )
                    ports[s, lid] = best_port
                    load[(s, best_port)] = load.get((s, best_port), 0) + 1
