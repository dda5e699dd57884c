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
from repro.hardware.topology import Edge, GridTopology, edge_key


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
        self._swap_weights: Optional[Dict[Edge, float]] = None
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
        """
        row = self._best_paths.get(control)
        if row is None:
            row = self._best_paths[control] = self._dijkstra_from(control)
        return row[target]

    def _edge_weights(self) -> Dict[Edge, float]:
        """``-log(swap reliability)`` per coupling edge, computed once."""
        if self._swap_weights is None:
            self._swap_weights = {
                edge_key(a, b): -math.log(
                    max(self.calibration.swap_reliability(a, b), 1e-12))
                for a, b in self.topology.edges()}
        return self._swap_weights

    def _dijkstra_from(self, source: int) -> Dict[int, RoutedCnot]:
        """Max-reliability paths from *source* under the swap cost model.

        Edge weight between adjacent u, v when extending a path whose
        last hop becomes a swap: we search over paths using
        ``-log(swap reliability)`` per interior edge, then rescore the
        final hop as a plain CNOT (matching :func:`route_cost`).
        """
        topo = self.topology
        weights = self._edge_weights()
        dist = {source: 0.0}
        prev: Dict[int, int] = {}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for v in topo.neighbors(u):
                nd = d + weights[edge_key(u, v)]
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        result: Dict[int, RoutedCnot] = {}
        for target in topo.iter_qubits():
            if target == source:
                continue
            path = [target]
            while path[-1] != source:
                path.append(prev[path[-1]])
            path.reverse()
            result[target] = route_cost(self.calibration, path)
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
