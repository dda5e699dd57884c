"""Monte-Carlo noisy execution of compiled programs.

Stands in for the paper's 8192-trial runs on IBMQ16: each trial executes
the physical circuit on a statevector, with stochastic Pauli errors
sampled per gate, idle decoherence sampled per waiting window (computed
from the compiled schedule's start times), and readout bit flips on
measurement. The fraction of trials returning the benchmark's known
answer is the measured success rate.

Engines are strategies registered with
:func:`repro.backend.engines.register_engine`; :func:`execute` resolves
its ``engine`` argument through that registry. The built-ins sample one
law, lowered once per (program, noise model) pair into a
:class:`~repro.simulator.trace.ProgramTrace` from the model's
probability accessors:

* ``engine="batched"`` (default, :class:`BatchedEngine`) samples all
  trials with array-level operations (:mod:`repro.simulator.batch`):
  one Bernoulli matrix for every error site, a single vectorized draw
  for all error-free trials, and one statevector simulation per
  *distinct* noisy error plan;
* ``engine="stabilizer"`` samples Clifford programs from the same trace
  in polynomial time, and ``engine="auto"`` routes each circuit to it or
  to ``batched`` (:mod:`repro.simulator.stabilizer.engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.backend.engines import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    get_engine,
    register_engine,
)
from repro.compiler.compile import CompiledProgram
from repro.exceptions import SimulationCapacityError, SimulationError
from repro.hardware.calibration import Calibration
from repro.simulator.batch import amplitude_budget, run_batched
from repro.simulator.noise import NoiseModel
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


def check_dense_capacity(n_qubits: int, budget: int,
                         engine_name: str) -> None:
    """Refuse a dense run that cannot fit the amplitude budget.

    A ``2**n_qubits`` complex statevector beyond
    :func:`~repro.simulator.batch.amplitude_budget` would die in the
    allocator (or swap the host to death) long after the user could do
    anything about it; fail fast with the remedy instead.
    """
    if (1 << n_qubits) > budget:
        ceiling = max(0, budget).bit_length() - 1
        raise SimulationCapacityError(
            f"engine={engine_name!r} needs a dense statevector of "
            f"2**{n_qubits} amplitudes for this {n_qubits}-qubit "
            f"program, but the amplitude budget allows at most "
            f"{ceiling} qubits (raise it with REPRO_CHUNK_MIB "
            f"or --chunk-mib); try `--engine stabilizer` for Clifford "
            f"circuits, or `--engine auto` to route automatically.")


@register_engine
class BatchedEngine(ExecutionEngine):
    """Vectorized Monte-Carlo over a lowered :class:`ProgramTrace`.

    Lowers error sites from the noise model's probability accessors and
    samples every trial with array-level operations; see
    :mod:`repro.simulator.batch`.
    """

    name = "batched"

    def run(self, compiled: CompiledProgram, calibration: Calibration,
            noise: NoiseModel, *, trials: int, seed: int,
            expected: Optional[str] = None,
            trace_cache=None) -> ExecutionResult:
        check_dense_capacity(len(compiled.physical.circuit.used_qubits()),
                             amplitude_budget(), self.name)
        rng = np.random.default_rng(seed)
        trace = (trace_cache.get(compiled, noise, calibration)
                 if trace_cache is not None else None)
        if trace is None:
            compact = CompactProgram(compiled.physical.circuit,
                                     compiled.physical.times,
                                     topology=calibration.topology)
            trace = ProgramTrace(compact, noise)
            if trace_cache is not None:
                # Materialize the ideal distribution (needed below
                # anyway) before caching, so a persistent trace tier
                # captures the dense simulation — the dominant lowering
                # cost — not just the site tables.
                _ = trace.ideal_distribution
                trace_cache.put(compiled, noise, calibration, trace)
        counts = run_batched(trace, trials, rng)
        return ExecutionResult(counts=counts, trials=trials,
                               expected=expected,
                               ideal_distribution=trace.ideal_distribution)


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
        engine: Name of a registered
            :class:`~repro.backend.engines.ExecutionEngine` —
            ``"batched"`` (vectorized dense, default), ``"stabilizer"``
            (Clifford programs, polynomial time), ``"auto"`` (Clifford
            to ``stabilizer``, else ``batched``), or any third-party
            registration.
        trace_cache: Optional :class:`repro.runtime.cache.TraceCache`
            (or anything with the same ``get``/``put`` signature).
            When given, the engine reuses a previously lowered
            :class:`ProgramTrace` for the same (compiled program, noise
            model) pair instead of re-lowering, which is the dominant
            per-call cost when sweeping seeds or trial counts.

    Returns:
        Counts plus success-rate/overlap accessors.
    """
    if trials < 1:
        raise SimulationError("need at least one trial")
    resolved = get_engine(engine)
    noise = noise_model or NoiseModel(calibration)
    return resolved.run(compiled, calibration, noise, trials=trials,
                        seed=seed, expected=expected,
                        trace_cache=trace_cache)

