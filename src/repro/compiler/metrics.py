"""Compile-time quality estimates: reliability scores and durations.

The paper's reliability score (§3.1) is the product over program CNOTs
and readouts of their individual reliabilities; single-qubit gates are
deliberately ignored for IBMQ16. These estimators let callers compare
mappings without touching hardware (or the simulator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.compiler.scheduling.list_scheduler import Schedule
from repro.hardware.calibration import Calibration
from repro.ir.circuit import Circuit


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Predicted program reliability for one compiled mapping.

    Attributes:
        score: Paper-convention product (one-way swap charging).
        round_trip_score: Product charging the return swaps too — what
            the executed circuit actually incurs.
        cnot_score: CNOT-only factor.
        readout_score: Readout-only factor.
        swap_count: One-way SWAPs across all routed CNOTs.
    """

    score: float
    round_trip_score: float
    cnot_score: float
    readout_score: float
    swap_count: int


def estimate_reliability(logical: Circuit, schedule: Schedule,
                         placement: Dict[int, int],
                         calibration: Calibration) -> ReliabilityEstimate:
    """Evaluate the paper's reliability score for a scheduled mapping."""
    cnot_score = 1.0
    round_trip_cnots = 1.0
    readout_score = 1.0
    swaps = 0
    for item in schedule.gates:
        gate = logical.gates[item.index]
        if gate.is_measure:
            readout_score *= calibration.readout_reliability(
                placement[gate.qubits[0]])
        elif gate.is_two_qubit:
            assert item.route is not None
            cnot_score *= item.route.cost.reliability
            round_trip_cnots *= item.route.cost.round_trip_reliability
            swaps += item.route.n_swaps
    return ReliabilityEstimate(
        score=cnot_score * readout_score,
        round_trip_score=round_trip_cnots * readout_score,
        cnot_score=cnot_score,
        readout_score=readout_score,
        swap_count=swaps,
    )


def weighted_log_reliability(estimate: ReliabilityEstimate,
                             omega: float) -> float:
    """Eq.-12 value of an estimate: omega-weighted log reliabilities."""
    return (omega * math.log(max(estimate.readout_score, 1e-300))
            + (1.0 - omega) * math.log(max(estimate.cnot_score, 1e-300)))
