"""The ``"stabilizer"`` engine and the ``"auto"`` Clifford router."""

from __future__ import annotations

import warnings
from typing import Optional, Set

import numpy as np

from repro.backend.engines import (
    ExecutionEngine,
    get_engine,
    register_engine,
)
from repro.exceptions import SimulationError
from repro.simulator.stabilizer.clifford import first_non_clifford
from repro.simulator.stabilizer.program import (
    sample_stabilizer_counts,
    stabilizer_program,
)
from repro.simulator.trace import CompactProgram, ProgramTrace


def _lowered_trace(compiled, calibration, noise, trace_cache):
    """The (cached) flat error-site lowering — the *same* trace the
    batched engine builds, so engine-comparison sweeps share one
    ``TraceCache`` entry per (program, noise, snapshot) triple."""
    trace = (trace_cache.get(compiled, noise, calibration)
             if trace_cache is not None else None)
    if trace is None:
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=calibration.topology)
        trace = ProgramTrace(compact, noise)
        if trace_cache is not None:
            trace_cache.put(compiled, noise, calibration, trace)
    return trace


@register_engine
class StabilizerEngine(ExecutionEngine):
    """Polynomial-time noisy sampling for Clifford programs.

    Lowers the program through the same :class:`ProgramTrace` error-
    site table as the batched engine, then runs the one-shot symbolic
    CHP pass (:mod:`repro.simulator.stabilizer.program`) instead of
    any dense statevector — cost is polynomial in qubits, so 100-qubit
    programs sample in seconds. All RNG draws are host numpy under the
    repo's sampling law (occurrence matrix, conditional Pauli choices,
    shared readout-flip sequence), so counts are deterministic per
    seed and bit-identical across serial/parallel sweeps.

    Raises :class:`SimulationError` on non-Clifford programs; use
    ``engine="auto"`` to fall back to dense automatically.
    """

    name = "stabilizer"
    family = "stabilizer"

    def capacity_note(self) -> str:
        return "hundreds of qubits (Clifford-only)"

    def run(self, compiled, calibration, noise, *, trials: int, seed: int,
            expected: Optional[str] = None, trace_cache=None):
        from repro.simulator.executor import ExecutionResult

        gate = first_non_clifford(compiled.physical.circuit)
        if gate is not None:
            raise SimulationError(
                f"engine='stabilizer' is exact only for Clifford "
                f"circuits, but the compiled program contains "
                f"{gate.name!r} on qubits {gate.qubits}; use "
                f"engine='auto' to route non-Clifford programs to a "
                f"dense engine")
        rng = np.random.default_rng(seed)
        trace = _lowered_trace(compiled, calibration, noise, trace_cache)
        counts = sample_stabilizer_counts(trace, trials, rng)
        ideal = stabilizer_program(trace).ideal_distribution(trace)
        return ExecutionResult(counts=counts, trials=trials,
                               expected=expected,
                               ideal_distribution=ideal)


#: Non-Clifford gate names the router has already explained once.
_WARNED_NON_CLIFFORD: Set[str] = set()


def _warn_dense_routing(gate) -> None:
    if gate.name in _WARNED_NON_CLIFFORD:
        return
    _WARNED_NON_CLIFFORD.add(gate.name)
    warnings.warn(
        f"engine='auto': gate {gate.name!r} is not Clifford; routing "
        f"this (and further such) programs to the dense "
        f"engine='batched', which is exponential in qubits.",
        RuntimeWarning, stacklevel=5)


@register_engine
class AutoEngine(ExecutionEngine):
    """Per-circuit router: Clifford -> stabilizer, else dense.

    Checks the *compiled physical* circuit with
    :func:`~repro.simulator.stabilizer.clifford.is_clifford` and
    delegates to the registered ``"stabilizer"`` or ``"batched"``
    engine — same trace cache, same seeds, so the result is
    bit-identical to naming the chosen engine explicitly. The dense
    fallback is announced once per offending gate name (it silently
    changes the scaling class, which is easy to misattribute in sweep
    timings).
    """

    name = "auto"
    family = "router"

    def capacity_note(self) -> str:
        return "Clifford -> stabilizer, else dense"

    def run(self, compiled, calibration, noise, *, trials: int, seed: int,
            expected: Optional[str] = None, trace_cache=None):
        gate = first_non_clifford(compiled.physical.circuit)
        if gate is None:
            return get_engine("stabilizer").run(
                compiled, calibration, noise, trials=trials, seed=seed,
                expected=expected, trace_cache=trace_cache)
        _warn_dense_routing(gate)
        return get_engine("batched").run(
            compiled, calibration, noise, trials=trials, seed=seed,
            expected=expected, trace_cache=trace_cache)
