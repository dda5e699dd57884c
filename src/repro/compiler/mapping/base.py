"""Mapping-pass interface and result type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import MappingError
from repro.hardware.calibration import Calibration
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit


@dataclass
class MappingResult:
    """Outcome of an initial-placement pass.

    Attributes:
        placement: Program qubit -> hardware qubit.
        objective: The mapper's internal objective value, if any.
        optimal: Whether the placement is provably optimal for that
            objective (SMT variants) or heuristic (greedy variants).
        solve_time: Seconds spent inside the mapper.
        nodes: Search nodes expanded (0 for heuristics).
        stats: Solver search counters (engine, nodes, prunes,
            incumbents) for the SMT variants; ``None`` for heuristics.
    """

    placement: Dict[int, int]
    objective: Optional[float] = None
    optimal: bool = False
    solve_time: float = 0.0
    nodes: int = 0
    stats: Optional[Dict[str, object]] = None

    def validate(self, circuit: Circuit, calibration: Calibration) -> None:
        """Sanity-check the placement: total, injective, in range.

        Raises:
            MappingError: On any violation.
        """
        n_hw = calibration.topology.n_qubits
        missing = [q for q in range(circuit.n_qubits)
                   if q not in self.placement]
        if missing:
            raise MappingError(f"unplaced program qubits {missing}")
        values = list(self.placement.values())
        if len(set(values)) != len(values):
            raise MappingError("placement is not injective")
        bad = [h for h in values if not 0 <= h < n_hw]
        if bad:
            raise MappingError(f"placement uses unknown hardware qubits {bad}")


class Mapper:
    """Base class for initial-placement passes."""

    def run(self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables) -> MappingResult:
        """Compute a placement for *circuit* on the calibrated machine."""
        raise NotImplementedError

    @staticmethod
    def check_fits(circuit: Circuit, calibration: Calibration) -> None:
        """Raise when the program does not fit the machine."""
        n_hw = calibration.topology.n_qubits
        if circuit.n_qubits > n_hw:
            raise MappingError(
                f"program has {circuit.n_qubits} qubits but machine only "
                f"{n_hw}")
