"""Noisy hardware executor (the IBMQ16 substitute).

Execution is Monte-Carlo over stochastic Pauli errors, under one
sampling law lowered once per (program, noise model) pair into a
:class:`~repro.simulator.trace.ProgramTrace`. ``execute(engine=
"batched")`` (the default, :mod:`repro.simulator.batch`) samples it on
a dense numpy statevector, one batched pass over the distinct noisy
error plans. Clifford programs additionally have a polynomial-time path:
``execute(engine="stabilizer")`` runs the symbolic CHP tableau
subsystem (:mod:`repro.simulator.stabilizer`) over the same lowered
trace, and ``engine="auto"`` routes each circuit to stabilizer or
dense automatically.
"""

from repro.simulator.batch import run_batched
from repro.simulator.executor import ExecutionResult, execute
from repro.simulator.stabilizer import (
    CLIFFORD_GATES,
    SymbolicTableau,
    first_non_clifford,
    is_clifford,
    sample_stabilizer_counts,
    stabilizer_program,
)
from repro.simulator.noise import (
    IdleRates,
    NoiseModel,
    ideal_noise_model,
    noise_content_key,
)
from repro.simulator.statevector import StateVector, cached_unitary
from repro.simulator.trace import CompactProgram, ProgramTrace
from repro.simulator.success import (
    distribution_overlap,
    empirical_distribution,
    success_rate,
    total_variation_distance,
)

__all__ = [
    "CLIFFORD_GATES",
    "CompactProgram",
    "ExecutionResult",
    "ProgramTrace",
    "SymbolicTableau",
    "IdleRates",
    "NoiseModel",
    "StateVector",
    "cached_unitary",
    "distribution_overlap",
    "empirical_distribution",
    "execute",
    "first_non_clifford",
    "ideal_noise_model",
    "is_clifford",
    "noise_content_key",
    "run_batched",
    "sample_stabilizer_counts",
    "stabilizer_program",
    "success_rate",
    "total_variation_distance",
]
