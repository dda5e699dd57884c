"""Reference list scheduler the lazy-heap scheduler is tested against.

Not a test module (pytest does not collect it) and not a runtime
fallback: this is ``schedule_circuit`` as it was before ready gates were
picked from a heap. At every step it recomputes each ready gate's
earliest start (the latest finish of its predecessors, and of its
reserved region) and commits ``min(ready, key=(start, index))``. The
production scheduler must return an equal :class:`Schedule`: the same
gates in the same order with the same floats, the same makespan and the
same coherence violations.
"""

from typing import Dict, List, Optional

from repro.compiler import CompilerOptions, Router
from repro.compiler.scheduling.list_scheduler import (
    Schedule,
    ScheduledGate,
    _coherence_violations,
    gate_durations,
)
from repro.exceptions import SchedulingError
from repro.hardware import Calibration, ReliabilityTables
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG


def reference_schedule(circuit: Circuit, placement: Dict[int, int],
                       calibration: Calibration, tables: ReliabilityTables,
                       options: CompilerOptions,
                       dag: Optional[DependencyDAG] = None) -> Schedule:
    """Earliest-ready-gate-first by a full scan of the ready list."""
    if options.variant in ("t-smt", "qiskit"):
        prefer = "fixed"
    elif options.variant == "t-smt*":
        prefer = "duration"
    else:
        prefer = "reliability"
    router = Router(tables, options.routing, prefer=prefer)
    uniform = (options.uniform_cnot_slots
               if options.variant == "t-smt" or options.variant == "qiskit"
               else None)
    per_gate = gate_durations(circuit, placement, router, calibration,
                              uniform_cnot_slots=uniform)
    if dag is None:
        dag = DependencyDAG.from_circuit(circuit)

    n = len(circuit.gates)
    free_at: Dict[int, float] = {h: 0.0 for h in
                                 calibration.topology.iter_qubits()}
    finish: List[float] = [0.0] * n
    unscheduled_preds = [len(p) for p in dag.preds]
    ready = [i for i in range(n) if unscheduled_preds[i] == 0]
    scheduled: List[ScheduledGate] = []

    def start_of(i: int) -> float:
        release = max((finish[p] for p in dag.preds[i]), default=0.0)
        region = per_gate[i][1]
        resource = max((free_at[h] for h in region), default=0.0)
        return max(release, resource)

    while ready:
        best = min(ready, key=lambda i: (start_of(i), i))
        ready.remove(best)
        duration, region, route = per_gate[best]
        start = start_of(best)
        finish[best] = start + duration
        for h in region:
            free_at[h] = finish[best]
        scheduled.append(ScheduledGate(index=best, start=start,
                                       duration=duration,
                                       hw_qubits=region, route=route))
        for succ in dag.succs[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)

    makespan = max((g.finish for g in scheduled), default=0.0)
    violations = _coherence_violations(scheduled, calibration, options)
    if violations and options.enforce_coherence:
        i, h, fin, deadline = violations[0]
        raise SchedulingError(
            f"gate {i} finishes at {fin:.1f} past coherence deadline "
            f"{deadline:.1f} of hardware qubit {h}")
    scheduled.sort(key=lambda g: (g.start, g.index))
    return Schedule(gates=scheduled, makespan=makespan,
                    coherence_violations=violations)
