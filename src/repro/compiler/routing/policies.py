"""Routing policies: choosing the swap path and reserved region per CNOT.

Implements the paper's three policies plus the baseline:

* **RR** (rectangle reservation, §4.3): the CNOT blocks its whole
  bounding rectangle for its duration; the executed path is the better
  one-bend path.
* **1BP** (one-bend paths, §4.3): the CNOT travels one of the two
  L-paths along its bounding rectangle and reserves exactly that path.
* **Best Path** (§5): the Dijkstra most-reliable path from calibration
  data (used by the greedy heuristics).
* **Shortest**: noise-unaware shortest grid path (Qiskit-like baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.compiler.options import (
    ROUTE_BEST_PATH,
    ROUTE_ONE_BEND,
    ROUTE_RECTANGLE,
    ROUTE_SHORTEST,
)
from repro.exceptions import CompilationError
from repro.hardware.reliability import ReliabilityTables, RoutedCnot


@dataclass(frozen=True)
class Route:
    """A routed CNOT: the path executed and the region reserved.

    Attributes:
        cost: Path cost summary (reliability, duration).
        reserved: Hardware qubits blocked while the CNOT executes.
    """

    cost: RoutedCnot
    reserved: Tuple[int, ...]

    @property
    def path(self) -> Tuple[int, ...]:
        return self.cost.path

    @property
    def duration(self) -> float:
        return self.cost.duration

    @property
    def reliability(self) -> float:
        return self.cost.reliability

    @property
    def n_swaps(self) -> int:
        return self.cost.n_swaps


class Router:
    """Chooses routes for hardware CNOTs under a fixed policy.

    Args:
        tables: Per-calibration routing cost tables.
        policy: One of the ``ROUTE_*`` names.
        prefer: ``"reliability"`` or ``"duration"`` — the tie-break and
            path-selection criterion (R variants prefer reliability,
            T variants duration).
    """

    def __init__(self, tables: ReliabilityTables, policy: str,
                 prefer: str = "reliability") -> None:
        if prefer not in ("reliability", "duration", "fixed"):
            raise CompilationError(f"unknown preference {prefer!r}")
        self.tables = tables
        self.topology = tables.topology
        self.policy = policy
        self.prefer = prefer

    def route(self, control: int, target: int) -> Route:
        """Route a hardware CNOT from *control* to *target*.

        Raises:
            CompilationError: If control and target coincide.
        """
        if control == target:
            raise CompilationError("CNOT control and target coincide")
        if self.policy == ROUTE_ONE_BEND:
            cost = self._pick_one_bend(control, target)
            return Route(cost=cost, reserved=cost.path)
        if self.policy == ROUTE_RECTANGLE:
            cost = self._pick_one_bend(control, target)
            region = tuple(self.topology.bounding_rectangle(control, target))
            return Route(cost=cost, reserved=region)
        if self.policy == ROUTE_BEST_PATH:
            cost = self.tables.best_path(control, target)
            return Route(cost=cost, reserved=cost.path)
        if self.policy == ROUTE_SHORTEST:
            cost = self._shortest(control, target)
            return Route(cost=cost, reserved=cost.path)
        raise CompilationError(f"unknown routing policy {self.policy!r}")

    # ------------------------------------------------------------------
    def _pick_one_bend(self, control: int, target: int) -> RoutedCnot:
        options = [self.tables.one_bend(control, target, 0)]
        if self.prefer == "fixed":
            # Noise-blind variants must not let calibration data sway
            # even the junction choice.
            return options[0]
        j0, j1 = self.topology.one_bend_junctions(control, target)
        if j0 != j1:
            options.append(self.tables.one_bend(control, target, 1))
        if self.prefer == "duration":
            return min(options, key=lambda r: (r.duration, r.path))
        return max(options, key=lambda r: (r.reliability, r.path))

    def _shortest(self, control: int, target: int) -> RoutedCnot:
        """Noise-unaware: x-first one-bend path, deterministic."""
        return self.tables.one_bend(control, target, 0)

