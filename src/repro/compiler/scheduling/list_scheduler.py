"""List scheduling with spatial reservations.

Implements the paper's "earliest ready gate first" policy (§5, citing
[27]) under the routing policies' resource model: a routed CNOT blocks
its reserved region (the one-bend path, or the whole bounding rectangle
under RR) for its duration; CNOTs that overlap in space may not overlap
in time (Constraints 7-9). Data dependencies give each gate a release
time (Constraint 3); coherence deadlines (Constraints 4/6) are checked
on the result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.options import CompilerOptions
from repro.compiler.routing.policies import Route, Router
from repro.exceptions import SchedulingError
from repro.hardware.calibration import (
    READOUT_SLOTS,
    SINGLE_QUBIT_SLOTS,
    Calibration,
)
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG


@dataclass(frozen=True)
class ScheduledGate:
    """One scheduled program gate.

    Attributes:
        index: Gate index in the logical circuit.
        start: Start timeslot.
        duration: Duration in timeslots (includes swap time for CNOTs).
        hw_qubits: Hardware qubits reserved for the gate.
        route: Routing decision for CNOTs (``None`` otherwise).
    """

    index: int
    start: float
    duration: float
    hw_qubits: Tuple[int, ...]
    route: Optional[Route] = None

    @property
    def finish(self) -> float:
        return self.start + self.duration


@dataclass
class Schedule:
    """A complete schedule of the logical circuit on hardware.

    Attributes:
        gates: Scheduled gates in start-time order.
        makespan: Finish time of the last gate.
        coherence_violations: (gate index, hw qubit, finish, deadline)
            tuples where a gate finishes past a qubit's coherence time.
    """

    gates: List[ScheduledGate]
    makespan: float
    coherence_violations: List[Tuple[int, int, float, float]] = field(
        default_factory=list)

    @property
    def coherence_ok(self) -> bool:
        return not self.coherence_violations

    def swap_count(self) -> int:
        """Total one-way SWAPs across all routed CNOTs."""
        return sum(g.route.n_swaps for g in self.gates if g.route is not None)


def gate_durations(circuit: Circuit, placement: Dict[int, int],
                   router: Router, calibration: Calibration,
                   uniform_cnot_slots: Optional[float] = None
                   ) -> List[Tuple[float, Tuple[int, ...], Optional[Route]]]:
    """Per-gate (duration, reserved hw qubits, route) under *placement*.

    Args:
        uniform_cnot_slots: When given, CNOT durations use the paper's
            noise-unaware formula ``2 (d-1) 3 tau + tau`` with this tau,
            instead of calibrated per-edge times.
    """
    out: List[Tuple[float, Tuple[int, ...], Optional[Route]]] = []
    for gate in circuit.gates:
        if gate.name == "barrier":
            hw = tuple(sorted(placement[q] for q in gate.qubits))
            out.append((0.0, hw, None))
        elif gate.is_measure:
            out.append((float(READOUT_SLOTS),
                        (placement[gate.qubits[0]],), None))
        elif gate.is_two_qubit:
            control, target = (placement[gate.qubits[0]],
                               placement[gate.qubits[1]])
            route = router.route(control, target)
            if uniform_cnot_slots is not None:
                duration = router.tables.uniform_duration(
                    control, target, tau_cnot=uniform_cnot_slots)
                cost = route.cost
                route = Route(cost=type(cost)(
                    path=cost.path, reliability=cost.reliability,
                    round_trip_reliability=cost.round_trip_reliability,
                    duration=duration), reserved=route.reserved)
            out.append((route.duration, route.reserved, route))
        else:
            out.append((float(SINGLE_QUBIT_SLOTS),
                        (placement[gate.qubits[0]],), None))
    return out


def schedule_circuit(circuit: Circuit, placement: Dict[int, int],
                     calibration: Calibration, tables: ReliabilityTables,
                     options: CompilerOptions,
                     dag: Optional[DependencyDAG] = None) -> Schedule:
    """Schedule *circuit* under *placement* with the options' policy.

    Earliest-ready-gate-first: gates become ready when all dependencies
    finish; among ready gates the one that can start earliest (given its
    reserved region) is committed first.

    Raises:
        SchedulingError: If ``options.enforce_coherence`` and a gate
            finishes after a participating qubit's coherence deadline.
    """
    if options.variant in ("t-smt", "qiskit"):
        prefer = "fixed"  # noise-blind variants
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
    preds, succs = dag.preds, dag.succs
    free_at = [0.0] * calibration.topology.n_qubits
    finish = [0.0] * n
    release = [0.0] * n
    unscheduled_preds = [len(p) for p in preds]
    scheduled: List[ScheduledGate] = []

    def start_of(i: int) -> float:
        resource = max((free_at[h] for h in per_gate[i][1]), default=0.0)
        return max(release[i], resource)

    # Ready gates keyed (start, index) when pushed. free_at never
    # decreases, so a key is a lower bound on its gate's start: a popped
    # gate whose start still equals its key is the earliest ready gate,
    # ties going to program order (FIFO); otherwise it goes back with
    # its new start.
    ready = [(0.0, i) for i in range(n) if not unscheduled_preds[i]]
    while ready:
        key, best = heapq.heappop(ready)
        start = start_of(best)
        if start > key:
            heapq.heappush(ready, (start, best))
            continue
        duration, region, route = per_gate[best]
        end = finish[best] = start + duration
        for h in region:
            free_at[h] = end
        scheduled.append(ScheduledGate(index=best, start=start,
                                       duration=duration,
                                       hw_qubits=region, route=route))
        for succ in succs[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                # Its release time is fixed once the last predecessor
                # finishes.
                release[succ] = max(finish[p] for p in preds[succ])
                heapq.heappush(ready, (start_of(succ), succ))

    if len(scheduled) != n:
        raise SchedulingError("dependency cycle detected")  # pragma: no cover

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


def _coherence_violations(scheduled: List[ScheduledGate],
                          calibration: Calibration,
                          options: CompilerOptions):
    """Constraint 4 (static bound) or 6 (per-qubit calibrated bound)."""
    violations = []
    noise_aware = options.is_noise_aware or options.variant == "t-smt*"
    for g in scheduled:
        for h in g.hw_qubits:
            deadline = (calibration.coherence_slots(h) if noise_aware
                        else options.coherence_slots)
            if g.finish > deadline + 1e-9:
                violations.append((g.index, h, g.finish, deadline))
    return violations


def makespan_of(circuit: Circuit, placement: Dict[int, int],
                calibration: Calibration, tables: ReliabilityTables,
                options: CompilerOptions,
                dag: Optional[DependencyDAG] = None) -> float:
    """Makespan of the list schedule — the T-SMT leaf objective."""
    return schedule_circuit(circuit, placement, calibration, tables,
                            options, dag=dag).makespan
