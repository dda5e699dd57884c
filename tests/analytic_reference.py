"""Closed-form success estimate the Monte-Carlo executor is checked
against.

Not a test module (pytest does not collect it) and not a runtime path:
treat every error mechanism as an independent chance of spoiling the
run, so the predicted success rate is the product of

* per-physical-gate success ``(1 - error)`` (CNOT errors dominate);
* per-idle-window no-decoherence probability from the Pauli-twirl
  rates;
* per-readout success ``(1 - readout_error)``.

This is the paper's reliability score (§3.1) with a schedule-aware
decoherence term. It is *pessimistic* in one respect (an error event is
counted as fatal even when it cannot reach any measured qubit) and
*optimistic* in another (two errors can cancel); on the paper's
benchmarks it tracks the executor within a few percent.
"""

import math
from dataclasses import dataclass
from typing import Optional

from repro.compiler import CompiledProgram
from repro.hardware import Calibration
from repro.simulator import NoiseModel


@dataclass(frozen=True)
class AnalyticEstimate:
    """Factorized success prediction for a compiled program.

    Attributes:
        success: Overall predicted success probability.
        gate_factor: Product of per-gate success terms.
        decoherence_factor: Product of idle no-error terms.
        readout_factor: Product of readout success terms.
    """

    success: float
    gate_factor: float
    decoherence_factor: float
    readout_factor: float


def estimate_success_analytic(program: CompiledProgram,
                              calibration: Calibration,
                              noise_model: Optional[NoiseModel] = None
                              ) -> AnalyticEstimate:
    """Predict the executor's success rate analytically.

    Args:
        program: A compiled program (physical circuit + timing).
        calibration: The snapshot to execute under.
        noise_model: Optional override (mechanism toggles are honored).
    """
    noise = noise_model or NoiseModel(calibration)
    gate_factor = 1.0
    readout_factor = 1.0
    log_decoherence = 0.0

    last_finish = {}
    for gate, (start, duration) in zip(program.physical.circuit.gates,
                                       program.physical.times):
        for q in gate.qubits:
            previous = last_finish.get(q)
            if previous is not None and start > previous + 1e-9:
                rates = noise.idle_rates(q, start - previous)
                log_decoherence += math.log(max(1.0 - rates.total, 1e-12))
            last_finish[q] = start + duration
        if gate.is_measure:
            if noise.readout_errors:
                readout_factor *= 1.0 - calibration.readout_error(
                    gate.qubits[0])
        else:
            p = noise.gate_error_probability(gate)
            gate_factor *= 1.0 - p

    decoherence_factor = math.exp(log_decoherence)
    return AnalyticEstimate(
        success=gate_factor * decoherence_factor * readout_factor,
        gate_factor=gate_factor,
        decoherence_factor=decoherence_factor,
        readout_factor=readout_factor,
    )
