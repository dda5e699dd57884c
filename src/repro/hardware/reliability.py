"""Reliability and duration tables derived from calibration data.

Implements the precomputations of §4.4 and §5 of the paper:

* ``EC`` — for every hardware-qubit pair and one-bend junction, the
  reliability of executing a routed CNOT (swap path + the CNOT itself);
* ``Delta`` — the per-pair routed-CNOT duration matrix (Constraint 5);
* most-reliable paths between all pairs via Dijkstra with edge weights
  ``-log(swap reliability)`` — the "Best Path" policy of the heuristics.

The optimal mappers read ``Delta`` and the best one-bend reliabilities
as dense ``H x H`` arrays (:meth:`ReliabilityTables.delta_table`,
:meth:`ReliabilityTables.log_reliability_table`), built on first use and
shared by every compile of the snapshot.

Routing model (paper §2, §4.2): a CNOT between qubits at grid distance d
needs d-1 SWAPs to bring the states adjacent, each SWAP being 3 CNOTs;
the state is swapped back afterwards, so the *duration* counts
``2 (d-1) tau_swap + tau_cnot`` while the paper's *reliability* example
(footnote 3) charges the one-way swaps plus the CNOT. Both conventions
are implemented; the optimizer uses the paper's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import TopologyError
from repro.hardware.calibration import Calibration
from repro.hardware.topology import Edge, GridTopology

#: One coupling's (swap reliability, swap duration, CNOT reliability,
#: CNOT duration), the calibration figures a routed-CNOT hop reads.
Hop = Tuple[float, float, float, float]


@dataclass(frozen=True)
class RoutedCnot:
    """Cost summary of performing a CNOT along a specific swap path.

    Attributes:
        path: Hardware qubits from control to target, inclusive.
        reliability: One-way-swap reliability times CNOT reliability
            (the paper's objective convention).
        round_trip_reliability: Reliability including the return swaps
            actually executed on hardware.
        duration: ``2 (d-1) tau_swap + tau_cnot`` in timeslots.
    """

    path: Tuple[int, ...]
    reliability: float
    round_trip_reliability: float
    duration: float

    @property
    def n_swaps(self) -> int:
        """One-way SWAP count along the path."""
        return max(0, len(self.path) - 2)


def route_cost(calibration: Calibration, path: List[int]) -> RoutedCnot:
    """Evaluate a routed CNOT along *path* (control first, target last).

    The control state is swapped along ``path[0:-1]``; the CNOT executes
    on the final edge; afterwards the state is swapped back.

    Raises:
        TopologyError: If the path is not a chain of coupled qubits.
    """
    if len(path) < 2:
        raise TopologyError("path must contain at least control and target")
    topo = calibration.topology
    for a, b in zip(path, path[1:]):
        if not topo.is_adjacent(a, b):
            raise TopologyError(f"path step {a}->{b} is not a coupling edge")
    swap_edges = list(zip(path[:-2], path[1:-1]))
    swap_rel = 1.0
    swap_dur = 0.0
    for a, b in swap_edges:
        swap_rel *= calibration.swap_reliability(a, b)
        swap_dur += calibration.swap_duration(a, b)
    cnot_rel = calibration.cnot_reliability(path[-2], path[-1])
    cnot_dur = calibration.cnot_duration(path[-2], path[-1])
    return RoutedCnot(
        path=tuple(path),
        reliability=swap_rel * cnot_rel,
        round_trip_reliability=swap_rel * swap_rel * cnot_rel,
        duration=2.0 * swap_dur + cnot_dur,
    )


class ReliabilityTables:
    """All-pairs routing tables for one calibration snapshot.

    Args:
        calibration: The snapshot to precompute from.
    """

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.topology: GridTopology = calibration.topology
        self._one_bend: Dict[Tuple[int, int, int], RoutedCnot] = {}
        self._best_paths: Dict[int, Dict[int, RoutedCnot]] = {}
        self._couplings: Optional[Tuple[List[Tuple[Tuple[int, float], ...]],
                                        Dict[Edge, Hop]]] = None
        # Dense (delta, log reliability) tables; filled on first use only,
        # since most snapshots (e.g. large grids compiled greedily)
        # never need all H^2 routes.
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # One-bend (1BP) tables: the EC and Delta matrices of §4.4
    # ------------------------------------------------------------------
    def one_bend(self, control: int, target: int,
                 junction: int) -> RoutedCnot:
        """EC entry: routed-CNOT cost via the given junction (0 or 1)."""
        key = (control, target, junction)
        if key not in self._one_bend:
            path = self.topology.one_bend_path(control, target, junction)
            self._one_bend[key] = route_cost(self.calibration, path)
        return self._one_bend[key]

    def _one_bend_options(self, control: int,
                          target: int) -> List[RoutedCnot]:
        """The (at most) two one-bend routes of a pair."""
        if control == target:
            raise TopologyError("control and target coincide")
        options = [self.one_bend(control, target, 0)]
        j0, j1 = self.topology.one_bend_junctions(control, target)
        if j0 != j1:
            options.append(self.one_bend(control, target, 1))
        return options

    def best_one_bend(self, control: int, target: int) -> RoutedCnot:
        """Most reliable of the (at most) two one-bend routes."""
        return max(self._one_bend_options(control, target),
                   key=lambda r: r.reliability)

    def delta(self, control: int, target: int) -> float:
        """Delta matrix entry: minimum routed-CNOT duration (1BP)."""
        return min(r.duration
                   for r in self._one_bend_options(control, target))

    def delta_table(self) -> np.ndarray:
        """Dense Delta matrix: ``[c, t]`` equals :meth:`delta`, and the
        diagonal is ``inf`` (so row minima range over real partners)."""
        return self._dense_tables()[0]

    def log_reliability_table(self) -> np.ndarray:
        """Dense log best-1BP reliabilities, the CNOT terms of Eq. 12:
        ``[c, t]`` is ``log(max(best_one_bend(c, t).reliability, 1e-12))``,
        and the diagonal is the floor ``log(1e-12)``."""
        return self._dense_tables()[1]

    def _dense_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._dense is None:
            n = self.topology.n_qubits
            delta = np.full((n, n), math.inf)
            log_rel = np.full((n, n), math.log(1e-12))
            for c in range(n):
                for t in range(n):
                    if c != t:
                        options = self._one_bend_options(c, t)
                        delta[c, t] = min(r.duration for r in options)
                        log_rel[c, t] = math.log(max(
                            max(r.reliability for r in options), 1e-12))
            # Shared by every compile of the snapshot: read-only.
            delta.setflags(write=False)
            log_rel.setflags(write=False)
            self._dense = (delta, log_rel)
        return self._dense

    # ------------------------------------------------------------------
    # Most-reliable paths (heuristics' "Best Path" policy, §5)
    # ------------------------------------------------------------------
    def best_path(self, control: int, target: int) -> RoutedCnot:
        """Most reliable swap path between any pair (Dijkstra).

        Rows are computed lazily per source and memoized, so callers
        that only ever route from a few qubits never pay for the full
        all-pairs table.

        Raises:
            TopologyError: If either qubit is outside the machine, or
                the two coincide.
        """
        n = self.topology.n_qubits
        if not (0 <= control < n and 0 <= target < n):
            raise TopologyError(f"qubit pair ({control}, {target}) outside "
                                f"machine of {n} qubits")
        if control == target:
            raise TopologyError("control and target coincide")
        row = self._best_paths.get(control)
        if row is None:
            row = self._best_paths[control] = self._dijkstra_from(control)
        return row[target]

    def _coupling_data(self) -> Tuple[List[Tuple[Tuple[int, float], ...]],
                                      Dict[Edge, Hop]]:
        """The coupling data Best-Path rows read, computed once.

        Returns ``(links, hops)``: ``links[u]`` holds ``(v, -log(swap
        reliability))`` per coupled qubit ``v`` in increasing order, the
        search's edge weights; ``hops[u, v]`` is the :data:`Hop` of each
        coupling, in both directions.
        """
        if self._couplings is None:
            calibration = self.calibration
            hops: Dict[Edge, Hop] = {}
            for a, b in self.topology.edges():
                hops[a, b] = hops[b, a] = (
                    calibration.swap_reliability(a, b),
                    calibration.swap_duration(a, b),
                    calibration.cnot_reliability(a, b),
                    calibration.cnot_duration(a, b))
            links = [tuple((v, -math.log(max(hops[u, v][0], 1e-12)))
                           for v in self.topology.neighbors(u))
                     for u in self.topology.iter_qubits()]
            self._couplings = (links, hops)
        return self._couplings

    def _dijkstra_from(self, source: int) -> Dict[int, RoutedCnot]:
        """Max-reliability paths from *source* under the swap cost model.

        Edge weight between adjacent u, v when extending a path whose
        last hop becomes a swap: we search over paths using
        ``-log(swap reliability)`` per interior edge, then rescore the
        final hop as a plain CNOT (matching :func:`route_cost`).

        Every qubit's path extends its tree parent's by one hop, so one
        pass in settle order carries each path's swap reliability and
        swap duration forward from the parent's: the products and sums
        :func:`route_cost` forms along the path, in its order.

        Raises:
            TopologyError: If a tree edge is not a coupling edge.
        """
        links, hops = self._coupling_data()
        dist = [math.inf] * len(links)
        dist[source] = 0.0
        prev: Dict[int, int] = {}
        settled: List[int] = []
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            settled.append(u)
            for v, weight in links[u]:
                nd = d + weight
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))

        paths = {source: (source,)}
        swap_rel = {source: 1.0}
        swap_dur = {source: 0.0}
        result: Dict[int, RoutedCnot] = {}
        for v in settled[1:]:
            u = prev[v]
            hop = hops.get((u, v))
            if hop is None:
                raise TopologyError(f"path step {u}->{v} is not a coupling "
                                    f"edge")
            hop_rel, hop_dur, cnot_rel, cnot_dur = hop
            path = paths[v] = paths[u] + (v,)
            rel = swap_rel[u]
            result[v] = RoutedCnot(
                path=path, reliability=rel * cnot_rel,
                round_trip_reliability=rel * rel * cnot_rel,
                duration=2.0 * swap_dur[u] + cnot_dur)
            swap_rel[v] = rel * hop_rel
            swap_dur[v] = swap_dur[u] + hop_dur
        return result

    # ------------------------------------------------------------------
    # Noise-unaware counterparts (used by T-SMT)
    # ------------------------------------------------------------------
    def uniform_duration(self, control: int, target: int,
                         tau_cnot: float = 3.0) -> float:
        """Duration with identical gate times: 2 (d-1) tau_swap + tau_cnot."""
        d = self.topology.distance(control, target)
        if d == 0:
            raise TopologyError("control and target coincide")
        return 2.0 * (d - 1) * 3.0 * tau_cnot + tau_cnot
