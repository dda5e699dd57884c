"""Reference implementation the compiled T-SMT bound is tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: this is the per-gate critical-path bound ``TimeSmtMapper``
evaluated before it was compiled against the snapshot's dense Delta
table. Every call re-derives each CNOT's weight through
:meth:`ReliabilityTables.delta` (or ``uniform_duration`` for ``t-smt``)
and walks the DAG's predecessor sets with a generator ``max``. The
compiled bound must return the identical float for every assignment,
and its probe the identical float for every candidate value.
"""

from typing import Dict, List

from repro.compiler import CompilerOptions
from repro.compiler.mapping.smt import _var
from repro.hardware import Calibration, ReliabilityTables
from repro.hardware.calibration import READOUT_SLOTS, SINGLE_QUBIT_SLOTS
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG


def optimistic_durations(circuit: Circuit, assignment: Dict[str, int],
                         calibration: Calibration,
                         tables: ReliabilityTables,
                         options: CompilerOptions) -> List[float]:
    """Admissible per-gate durations, one table lookup per gate."""
    uniform = options.variant == "t-smt"
    hw = list(calibration.topology.iter_qubits())
    if uniform:
        min_cnot_slots = options.uniform_cnot_slots
        min_from = {h: options.uniform_cnot_slots for h in hw}
    else:
        min_cnot_slots = min(e.cnot_duration_slots
                             for e in calibration.edges.values())
        min_from = {h: min(tables.delta(h, h2) for h2 in hw if h2 != h)
                    for h in hw}
    weights: List[float] = []
    for gate in circuit.gates:
        if gate.name == "barrier":
            weights.append(0.0)
        elif gate.is_measure:
            weights.append(float(READOUT_SLOTS))
        elif gate.is_two_qubit:
            hc = assignment.get(_var(gate.qubits[0]))
            ht = assignment.get(_var(gate.qubits[1]))
            if hc is None and ht is None:
                weights.append(min_cnot_slots)
            elif hc is None or ht is None or hc == ht:
                placed = ht if hc is None else hc
                weights.append(min_from[placed])
            elif uniform:
                weights.append(tables.uniform_duration(
                    hc, ht, tau_cnot=options.uniform_cnot_slots))
            else:
                weights.append(tables.delta(hc, ht))
        else:
            weights.append(float(SINGLE_QUBIT_SLOTS))
    return weights


def longest_path_length(dag: DependencyDAG,
                        weights: List[float]) -> float:
    """Critical path over the DAG's predecessor sets."""
    finish = [0.0] * len(dag.preds)
    for i in range(len(dag.preds)):
        start = max((finish[p] for p in dag.preds[i]), default=0.0)
        finish[i] = start + weights[i]
    return max(finish, default=0.0)


def reference_bound(circuit: Circuit, assignment: Dict[str, int],
                    calibration: Calibration, tables: ReliabilityTables,
                    options: CompilerOptions) -> float:
    """The T-SMT objective bound (negated critical path) of a partial
    assignment."""
    dag = DependencyDAG.from_circuit(circuit)
    return -longest_path_length(dag, optimistic_durations(
        circuit, assignment, calibration, tables, options))
