"""Reference Best-Path row the tree-built rows are tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: this is ``ReliabilityTables._dijkstra_from`` as it was before
rows were built from the shortest-path tree. The search reads
``topology.neighbors`` and a ``-log(swap reliability)`` per canonical
edge on every pop; every target then walks ``prev`` back to the source
and the whole path is scored again through :func:`route_cost`. A
tree-built row must equal it entry for entry: the same paths and the
same floats.
"""

import heapq
import math
from typing import Dict, List, Tuple

from repro.hardware import Calibration, RoutedCnot, route_cost
from repro.hardware.topology import edge_key


def reference_row(calibration: Calibration,
                  source: int) -> Dict[int, RoutedCnot]:
    """Most reliable routed CNOT from *source* to every other qubit."""
    topo = calibration.topology
    weights = {edge_key(a, b): -math.log(
        max(calibration.swap_reliability(a, b), 1e-12))
        for a, b in topo.edges()}
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
        result[target] = route_cost(calibration, path)
    return result
