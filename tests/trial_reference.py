"""Per-trial Monte-Carlo loop the batched sampler is tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: this is the ``"trial"`` execution engine as it was before the
package kept one sampling path. Every trial draws its own error plan
from the noise model's probability accessors — each idle window before
a gate, then the gate's own error — and runs it on a fresh statevector;
a trial with no error draws from the ideal distribution instead, and
each measured bit may then flip against its true value. The RNG calls
come in the old engine's order, so :func:`reference_execute` reproduces
its counts and ideal distributions bit for bit.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler import CompiledProgram
from repro.hardware import Calibration
from repro.ir.gates import Gate
from repro.simulator import (
    CompactProgram,
    ExecutionResult,
    NoiseModel,
    StateVector,
)
from repro.simulator.batch import amplitude_budget
from repro.simulator.executor import check_dense_capacity
from repro.simulator.noise import _PAULIS_1Q, _PAULIS_2Q

#: One sampled error: apply Pauli ``name`` to a qubit.
Event = Tuple[int, str]
Plan = List[List[Event]]


def sample_gate_error(noise: NoiseModel, gate: Gate,
                      rng: np.random.Generator,
                      concurrent_neighbors: int = 0) -> List[Event]:
    """Pauli events on hardware qubits following *gate* (empty list =
    no error)."""
    p = noise.gate_error_probability(gate, concurrent_neighbors)
    if p <= 0.0 or rng.random() >= p:
        return []
    if gate.is_two_qubit:
        pair = _PAULIS_2Q[rng.integers(len(_PAULIS_2Q))]
        return [(qubit, name) for qubit, name in zip(gate.qubits, pair)
                if name != "i"]
    return [(gate.qubits[0], _PAULIS_1Q[rng.integers(len(_PAULIS_1Q))])]


def sample_idle_error(noise: NoiseModel, qubit: int, idle_slots: float,
                      rng: np.random.Generator) -> List[Event]:
    """Pauli events for an idle window (at most one event)."""
    rates = noise.idle_rates(qubit, idle_slots)
    if rates.total <= 0.0:
        return []
    u = rng.random()
    if u < rates.p_x:
        return [(qubit, "x")]
    if u < rates.p_x + rates.p_y:
        return [(qubit, "y")]
    if u < rates.total:
        return [(qubit, "z")]
    return []


def sample_readout_flip(noise: NoiseModel, qubit: int,
                        rng: np.random.Generator, bit: int = 0) -> bool:
    """Whether the measured *bit* of *qubit* is misreported. Draws
    nothing when the model has readout errors switched off."""
    if not noise.readout_errors:
        return False
    return rng.random() < noise.readout_flip_probability(qubit, bit)


def sample_error_plan(compact: CompactProgram, noise: NoiseModel,
                      rng: np.random.Generator) -> Tuple[Plan, bool]:
    """Gate + idle Pauli events (on dense qubits) for one trial, and
    whether any fired."""
    plan: Plan = []
    any_error = False
    for i, (gate, gaps) in enumerate(zip(compact.gates,
                                         compact.idle_before)):
        events = []
        for qubit, idle in gaps:
            events.extend(sample_idle_error(noise, qubit, idle, rng))
        events.extend(sample_gate_error(
            noise, gate, rng,
            concurrent_neighbors=compact.concurrent_neighbors[i]))
        if events:
            any_error = True
        plan.append([(compact.hw_to_dense[q], name) for q, name in events])
    return plan, any_error


def run_state(compact: CompactProgram, plan: Optional[Plan]) -> StateVector:
    """Execute the gate list; apply the planned Pauli events after each
    gate."""
    state = StateVector(compact.n_qubits)
    for i, gate in enumerate(compact.gates):
        if gate.name != "barrier" and not gate.is_measure:
            dense = tuple(compact.hw_to_dense[q] for q in gate.qubits)
            state.apply_gate(gate.name, dense, param=gate.param)
        if plan is not None:
            for dense_q, pauli in plan[i]:
                state.apply_gate(pauli, (dense_q,))
    return state


def classical_string(compact: CompactProgram, bits: Sequence[int]) -> str:
    """The cbit string (cbit 0 first) a basis state's qubit bits read as."""
    chars = ["0"] * compact.n_cbits
    for _, dense, cbit in compact.measures:
        chars[cbit] = str(bits[dense])
    return "".join(chars)


def ideal_distribution(compact: CompactProgram) -> Dict[str, float]:
    """Noise-free distribution over classical strings."""
    probs = run_state(compact, None).probabilities()
    out: Dict[str, float] = {}
    n = compact.n_qubits
    for index, p in enumerate(probs):
        if p < 1e-12:
            continue
        bits = [(index >> (n - 1 - q)) & 1 for q in range(n)]
        string = classical_string(compact, bits)
        out[string] = out.get(string, 0.0) + float(p)
    return out


def reference_execute(compiled: CompiledProgram, calibration: Calibration,
                      trials: int = 1024, seed: int = 0,
                      expected: Optional[str] = None,
                      noise_model: Optional[NoiseModel] = None
                      ) -> ExecutionResult:
    """Run *compiled* for *trials* shots, one statevector per noisy
    trial."""
    noise = noise_model or NoiseModel(calibration)
    check_dense_capacity(len(compiled.physical.circuit.used_qubits()),
                         amplitude_budget(), "trial")
    rng = np.random.default_rng(seed)
    compact = CompactProgram(compiled.physical.circuit,
                             compiled.physical.times,
                             topology=calibration.topology)

    ideal = ideal_distribution(compact)
    ideal_outcomes = sorted(ideal)
    ideal_probs = np.array([ideal[o] for o in ideal_outcomes])
    ideal_probs = ideal_probs / ideal_probs.sum()

    counts: Dict[str, int] = {}
    for _ in range(trials):
        plan, any_error = sample_error_plan(compact, noise, rng)
        if not any_error:
            outcome = ideal_outcomes[
                int(rng.choice(len(ideal_outcomes), p=ideal_probs))]
        else:
            bits = run_state(compact, plan).sample(rng)
            outcome = classical_string(compact, bits)
        # Readout flips are drawn against the true measured bit, so the
        # calibration's readout asymmetry is honored.
        chars = list(outcome)
        for hw, _, cbit in compact.measures:
            if sample_readout_flip(noise, hw, rng, bit=int(chars[cbit])):
                chars[cbit] = "1" if chars[cbit] == "0" else "0"
        outcome = "".join(chars)
        counts[outcome] = counts.get(outcome, 0) + 1

    return ExecutionResult(counts=counts, trials=trials, expected=expected,
                           ideal_distribution=ideal)
