"""Noisy execution of compiled programs.

Stands in for the paper's 8192-trial runs on IBMQ16: each trial executes
the physical circuit under stochastic Pauli errors per gate, idle
decoherence per waiting window (computed from the compiled schedule's
start times), and readout bit flips on measurement. The fraction of
trials returning the benchmark's known answer is the measured success
rate. The trials' counts are drawn either from the program's exact
outcome law or by simulating trajectories, whichever the trace's size
calls for; both sample the same law.

Every engine samples one law, lowered once per (program, noise model)
pair into a :class:`~repro.simulator.trace.ProgramTrace` from the
model's probability accessors by :func:`lowered_trace`.
:func:`execute` dispatches on the three fixed engine names of
:data:`repro.backend.engines.ENGINES`:

* ``engine="batched"`` (default) samples all trials with array-level
  operations (:mod:`repro.simulator.batch`): on traces of at most
  ``EXACT_MAX_QUBITS`` qubits, one multinomial draw from the trace's
  exact outcome law, computed once and cached on the trace; on larger
  ones, one Bernoulli matrix for every error site, a single vectorized
  draw for all error-free trials, and one statevector simulation per
  *distinct* noisy error plan;
* ``engine="stabilizer"`` samples Clifford programs from the same trace
  in polynomial time (:mod:`repro.simulator.stabilizer`), and
  ``engine="auto"`` routes each Clifford circuit to it and everything
  else to ``batched``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.backend.engines import DEFAULT_ENGINE, engine_name
from repro.compiler.compile import CompiledProgram
from repro.exceptions import SimulationCapacityError, SimulationError
from repro.hardware.calibration import Calibration
from repro.simulator.batch import (amplitude_budget, prepare_for_cache,
                                   run_batched)
from repro.simulator.noise import NoiseModel
from repro.simulator.stabilizer.clifford import first_non_clifford
from repro.simulator.stabilizer.engine import (STABILIZER,
                                               warn_dense_routing)
from repro.simulator.success import distribution_overlap
from repro.simulator.trace import CompactProgram, ProgramTrace


@dataclass
class ExecutionResult:
    """Outcome of a Monte-Carlo run.

    Attributes:
        counts: Measured classical strings (cbit 0 first) -> frequency.
        trials: Number of trials executed.
        expected: The benchmark's known answer, when provided.
        ideal_distribution: Noise-free outcome distribution.
    """

    counts: Dict[str, int]
    trials: int
    expected: Optional[str] = None
    ideal_distribution: Dict[str, float] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Fraction of trials measuring the expected answer."""
        if self.expected is None:
            raise SimulationError("no expected outcome recorded")
        return self.counts.get(self.expected, 0) / self.trials

    @property
    def overlap(self) -> float:
        """Distribution overlap sum_o min(p_ideal, p_measured)."""
        empirical = {o: c / self.trials for o, c in self.counts.items()}
        return distribution_overlap(self.ideal_distribution, empirical)


def check_dense_capacity(n_qubits: int, budget: int, engine: str) -> None:
    """Refuse a dense run that cannot fit the amplitude budget.

    A ``2**n_qubits`` complex statevector beyond
    :func:`~repro.simulator.batch.amplitude_budget` would die in the
    allocator (or swap the host to death) long after the user could do
    anything about it; fail fast with the remedy instead.
    """
    if (1 << n_qubits) > budget:
        ceiling = max(0, budget).bit_length() - 1
        raise SimulationCapacityError(
            f"engine={engine!r} needs a dense statevector of "
            f"2**{n_qubits} amplitudes for this {n_qubits}-qubit "
            f"program, but the amplitude budget allows at most "
            f"{ceiling} qubits (raise it with REPRO_CHUNK_MIB "
            f"or --chunk-mib); try `--engine stabilizer` for Clifford "
            f"circuits, or `--engine auto` to route automatically.")


def lowered_trace(compiled: CompiledProgram, calibration: Calibration,
                  noise: NoiseModel, trace_cache=None,
                  dense: bool = False) -> ProgramTrace:
    """The error-site lowering of *compiled* under *noise*, served from
    *trace_cache* when it holds one, else lowered and put there.

    Every engine samples this one trace, so engine-comparison sweeps
    share one cache entry. With *dense*, the put carries the dense
    members (:func:`~repro.simulator.batch.prepare_for_cache`), so a
    persistent trace tier stores them and a later hit recomputes
    neither.
    """
    trace = (trace_cache.get(compiled, noise, calibration)
             if trace_cache is not None else None)
    if trace is None:
        compact = CompactProgram(compiled.physical.circuit,
                                 compiled.physical.times,
                                 topology=calibration.topology)
        trace = ProgramTrace(compact, noise)
        if trace_cache is not None:
            trace_cache.put(compiled, noise, calibration,
                            prepare_for_cache(trace) if dense else trace)
    return trace


def execute(compiled: CompiledProgram, calibration: Calibration,
            trials: int = 1024, seed: int = 0,
            expected: Optional[str] = None,
            noise_model: Optional[NoiseModel] = None,
            engine: str = DEFAULT_ENGINE,
            trace_cache=None) -> ExecutionResult:
    """Run *compiled* for *trials* shots on the noisy simulator.

    Args:
        compiled: Output of :func:`repro.compiler.compile_circuit`.
        calibration: The machine snapshot to execute under (normally the
            one the program was compiled against; pass a different day's
            snapshot to model stale-calibration compilation).
        trials: Shot count (the paper uses 8192).
        seed: Master RNG seed; results are reproducible.
        expected: The benchmark's known answer string.
        noise_model: Override the default all-mechanisms model.
        engine: ``"batched"`` (vectorized dense, default),
            ``"stabilizer"`` (Clifford programs, polynomial time) or
            ``"auto"`` (Clifford to ``stabilizer``, else ``batched``),
            case-insensitive.
        trace_cache: Optional :class:`repro.runtime.cache.TraceCache`
            (or anything with the same ``get``/``put`` signature).
            When given, every engine reuses a previously lowered
            :class:`ProgramTrace` for the same (compiled program, noise
            model) pair instead of re-lowering, which is the dominant
            per-call cost when sweeping seeds or trial counts.

    Returns:
        Counts plus success-rate/overlap accessors.

    Raises:
        SimulationError: Unknown engine, no trials, or
            ``engine="stabilizer"`` on a non-Clifford program.
        SimulationCapacityError: A dense run beyond the amplitude
            budget.
    """
    if trials < 1:
        raise SimulationError("need at least one trial")
    name = engine_name(engine)
    noise = noise_model or NoiseModel(calibration)
    rng = np.random.default_rng(seed)
    if name != "batched":
        gate = first_non_clifford(compiled.physical.circuit)
        if gate is None:
            trace = lowered_trace(compiled, calibration, noise, trace_cache)
            counts, ideal = STABILIZER.run(trace, trials, rng)
            return ExecutionResult(counts=counts, trials=trials,
                                   expected=expected,
                                   ideal_distribution=ideal)
        if name == "stabilizer":
            raise SimulationError(
                f"engine='stabilizer' is exact only for Clifford "
                f"circuits, but the compiled program contains "
                f"{gate.name!r} on qubits {gate.qubits}; use "
                f"engine='auto' to route non-Clifford programs to a "
                f"dense engine")
        warn_dense_routing(gate)
    check_dense_capacity(len(compiled.physical.circuit.used_qubits()),
                         amplitude_budget(), "batched")
    trace = lowered_trace(compiled, calibration, noise, trace_cache,
                          dense=True)
    counts = run_batched(trace, trials, rng)
    return ExecutionResult(counts=counts, trials=trials, expected=expected,
                           ideal_distribution=trace.ideal_distribution)

