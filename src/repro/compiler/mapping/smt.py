"""Optimization-based mapping (the paper's §4, "Optimal Compilation").

Builds the paper's formulation and hands it to the branch-and-bound
engine (the Z3 substitute, see the README's "Substitutions"): R-SMT*
as Eq.-12 cost matrices, T-SMT as a model with a makespan objective.

* Constraint 1 — every program qubit maps inside the grid: encoded in
  the variable domains (all hardware qubit ids).
* Constraint 2 — distinct locations: enforced by the solver, which
  never places two variables on one value.
* Constraints 3-9 — scheduling/routing: enforced by the deterministic
  list scheduler; the T-SMT objective evaluates it at search leaves,
  bounded below by the dependency-DAG critical path.
* Constraints 10-11 — reliability tracking: EC/readout lookups become
  the additive log terms of the Eq.-12 objective for R-SMT*.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.mapping.base import Mapper, MappingResult
from repro.compiler.mapping.greedy import GreedyEdgeMapper
from repro.compiler.options import CompilerOptions
from repro.compiler.scheduling.list_scheduler import makespan_of
from repro.exceptions import MappingError
from repro.hardware.calibration import (
    READOUT_SLOTS,
    SINGLE_QUBIT_SLOTS,
    Calibration,
)
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit
from repro.ir.dag import DependencyDAG
from repro.solver import (
    AssignmentMatrices,
    BranchAndBoundSolver,
    Model,
    Objective,
    Variable,
    assignment_matrices,
)
from repro.solver.bnb import SolveResult

_LOG_FLOOR = 1e-12


def _var(q: int) -> str:
    return f"loc_q{q}"


def _interacting_qubits(circuit: Circuit) -> List[int]:
    """Program qubits participating in at least one two-qubit gate,
    most-interacting first (the branching order).

    Non-interacting qubits never influence routing or makespan, so the
    search can omit them and place them afterwards without losing
    optimality (readout-only terms are assigned by a greedy matching,
    optimal by the rearrangement inequality). Branching on the busiest
    qubit first pins the one-endpoint-placed duration bounds early.
    """
    degree = Counter(q for g in circuit.gates if g.is_two_qubit
                     for q in g.qubits)
    qubits = sorted(degree, key=lambda q: (-degree[q], q))
    return qubits or [0]


def _identity_warm_start(search_qubits: List[int]) -> Dict[str, int]:
    """Program qubit q -> hardware qubit q, the mappers' fallback warm start.

    The solver validates the warm start itself and starts cold if it is
    infeasible under the model (e.g. a symmetry-broken domain excludes
    the identity placement).
    """
    return {_var(q): q for q in search_qubits}


def _greedy_warm_start(circuit: Circuit, calibration: Calibration,
                       tables: ReliabilityTables,
                       search_qubits: List[int]) -> Dict[str, int]:
    """Seed the exact search with GreedyE*'s placement.

    The greedy mapper lands near the optimum on most calibrations, so
    its value prunes the vast majority of the tree from node one. Any
    greedy failure — or a placement the model later rejects — degrades
    to the identity warm start / a cold search: warm starts are an
    accelerator, never a correctness dependency.
    """
    try:
        greedy = GreedyEdgeMapper().run(circuit, calibration, tables)
        return {_var(q): int(greedy.placement[q]) for q in search_qubits}
    except Exception:
        return _identity_warm_start(search_qubits)


def _complete_placement(circuit: Circuit, calibration: Calibration,
                        partial: Dict[int, int]) -> Dict[int, int]:
    """Place the remaining (non-interacting) qubits.

    Measured qubits take the most reliable remaining readout locations,
    heaviest-measured first; unmeasured qubits fill lowest free ids.
    """
    placement = dict(partial)
    used = set(placement.values())
    free = [h for h in calibration.topology.iter_qubits() if h not in used]
    measure_counts = Counter(g.qubits[0] for g in circuit.measurements)
    rest = [q for q in range(circuit.n_qubits) if q not in placement]
    rest.sort(key=lambda q: (-measure_counts.get(q, 0), q))
    free.sort(key=lambda h: (-calibration.readout_reliability(h), h))
    for q, h in zip(rest, free):
        placement[q] = h
    return placement


def _stats_dict(result: SolveResult) -> Optional[Dict[str, object]]:
    """Solver counters as a plain dict for MappingResult metadata."""
    if result.stats is None:
        return None
    return dataclasses.asdict(result.stats)


def reliability_model(circuit: Circuit, calibration: Calibration,
                      tables: ReliabilityTables, omega: float
                      ) -> Tuple[AssignmentMatrices, List[int]]:
    """Build R-SMT*'s Eq.-12 cost matrices for *circuit*.

    One variable per search qubit; column ``h`` is hardware qubit ``h``,
    open to every variable (Constraint 1). The terms, in this order:
    ``omega * count * log(readout reliability)``, one per measured
    search qubit, then ``(1 - omega) * count * log(CNOT reliability)``,
    one per ordered CNOT pair, read from the snapshot's shared table.
    Exposed as a module-level helper so the solver benchmarks and tests
    can drive the exact production matrices without a full compile.

    Returns:
        (the cost matrices, the interacting search qubits).
    """
    search_qubits = _interacting_qubits(circuit)
    index = {q: i for i, q in enumerate(search_qubits)}
    hw = list(calibration.topology.iter_qubits())
    readout_logrel = np.array(
        [math.log(max(calibration.readout_reliability(h), _LOG_FLOOR))
         for h in hw])
    cnot_logrel = tables.log_reliability_table()

    terms = []
    # Readout terms: one per measurement (Constraint 10). Readouts on
    # non-interacting qubits are optimized by the greedy completion.
    readout_counts = Counter(g.qubits[0] for g in circuit.measurements)
    for q, count in sorted(readout_counts.items()):
        if q in index:
            terms.append((index[q], -1, omega * count * readout_logrel))
    # CNOT terms: one per ordered interacting pair, weighted by the
    # number of CNOTs between the pair (Constraint 11 via EC lookups).
    cnot_counts = Counter((g.control, g.target) for g in circuit.cnots)
    for (qc, qt), count in sorted(cnot_counts.items()):
        terms.append((index[qc], index[qt],
                      (1.0 - omega) * count * cnot_logrel))

    mats = assignment_matrices(
        [_var(q) for q in search_qubits], np.array(hw, dtype=np.int64),
        np.ones((len(search_qubits), len(hw)), dtype=bool), terms)
    return mats, search_qubits


class ReliabilitySmtMapper(Mapper):
    """R-SMT*: maximize the Eq.-12 weighted log-reliability objective.

    Args:
        options: Supplies omega and the solver time limit.
    """

    def __init__(self, options: CompilerOptions) -> None:
        self.options = options

    def run(self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables) -> MappingResult:
        self.check_fits(circuit, calibration)
        mats, search_qubits = reliability_model(
            circuit, calibration, tables, self.options.omega)
        solver = BranchAndBoundSolver(
            time_limit=self.options.solver_time_limit)
        start = time.perf_counter()
        result = solver.solve(
            mats,
            initial=_greedy_warm_start(circuit, calibration, tables,
                                       search_qubits))
        elapsed = time.perf_counter() - start
        if result.assignment is None:
            raise MappingError("R-SMT* found no feasible placement")
        partial = {q: result.assignment[_var(q)] for q in search_qubits}
        placement = _complete_placement(circuit, calibration, partial)
        out = MappingResult(placement=placement,
                            objective=result.objective,
                            optimal=result.optimal,
                            solve_time=elapsed, nodes=result.nodes,
                            stats=_stats_dict(result))
        out.validate(circuit, calibration)
        return out


class _MakespanObjective(Objective):
    """The T-SMT objective: minus the list schedule's makespan.

    Its bound is minus the dependency-DAG critical path under admissible
    per-gate durations. A CNOT with both endpoints placed takes its true
    routed duration, one with one placed endpoint that location's
    best-case routed time, and one with none the global best-case
    adjacent-CNOT time.

    Everything the assignment cannot change is built here, once per
    solve: the static weight of every gate, one ``(gate, control var,
    target var)`` slot per CNOT, and the duration table the slots read
    (the snapshot's Delta table, or the uniform-duration table for
    ``t-smt``). The table's diagonal holds its row minima, so a CNOT
    with one placed endpoint, or with both endpoints on one location,
    reads that location's best case through the same lookup.

    :meth:`probe` bounds every candidate of one variable in one walk.
    Gates that cannot descend from the variable's CNOTs are walked once
    as floats. The other gates are walked once as numpy vectors over
    the candidates. Every element goes through the same IEEE ``max``
    and ``+`` as a scalar walk of that candidate alone, so each probed
    bound equals :meth:`bound` of the extended assignment exactly.
    """

    def __init__(self, circuit: Circuit, calibration: Calibration,
                 tables: ReliabilityTables, options: CompilerOptions,
                 search_qubits: List[int]) -> None:
        self._circuit = circuit
        self._calibration = calibration
        self._tables = tables
        self._options = options
        self._search_qubits = search_qubits
        self._rest_qubits = [q for q in range(circuit.n_qubits)
                             if q not in search_qubits]
        self._all_hw = list(calibration.topology.iter_qubits())
        self._dag = DependencyDAG.from_circuit(circuit)

        n_hw = calibration.topology.n_qubits
        if options.variant == "t-smt":
            tau = options.uniform_cnot_slots
            table = np.array([[tables.uniform_duration(hc, ht, tau_cnot=tau)
                               if hc != ht else math.inf
                               for ht in range(n_hw)] for hc in range(n_hw)])
            min_cnot = tau
        else:
            table = np.array(tables.delta_table())
            min_cnot = min(e.cnot_duration_slots
                           for e in calibration.edges.values())
        self._min_from = table.min(axis=1)
        np.fill_diagonal(table, self._min_from)
        self._rows = table.tolist()
        # Vectors over candidates: a CNOT from each location, into each.
        self._from = list(table)
        self._into = list(table.T.copy())

        self._static: List[float] = []
        self._slots: List[Tuple[int, str, str]] = []
        for i, gate in enumerate(circuit.gates):
            if gate.name == "barrier":
                self._static.append(0.0)
            elif gate.is_measure:
                self._static.append(float(READOUT_SLOTS))
            elif gate.is_two_qubit:
                self._static.append(float(min_cnot))
                self._slots.append(
                    (i, _var(gate.qubits[0]), _var(gate.qubits[1])))
            else:
                self._static.append(float(SINGLE_QUBIT_SLOTS))
        self._preds = [tuple(sorted(ps)) for ps in self._dag.preds]
        self._plans: Dict[Optional[str], tuple] = {}

    def value(self, assignment: Dict[str, int]) -> float:
        # Non-interacting qubits do not affect the makespan; fill them
        # with any free locations (cheap, called per leaf).
        placement = {q: assignment[_var(q)] for q in self._search_qubits}
        used = set(placement.values())
        free = (h for h in self._all_hw if h not in used)
        for q in self._rest_qubits:
            placement[q] = next(free)
        return -makespan_of(self._circuit, placement, self._calibration,
                            self._tables, self._options, dag=self._dag)

    def bound(self, assignment: Dict[str, int],
              domains: Dict[str, set]) -> float:
        return -self._walk(self._plan(None), self._weights(assignment))

    def probe(self, var: str, values: Sequence[int],
              assignment: Dict[str, int],
              domains: Dict[str, set]) -> List[float]:
        plan = self._plan(var)
        weights = self._weights(assignment)
        cands = np.asarray(values)
        for i, other, table in plan[0]:
            h = assignment.get(other)
            weights[i] = (self._min_from if h is None else table[h])[cands]
        longest = self._walk(plan, weights)
        if not plan[0]:
            return [-longest] * len(values)
        return (-longest).tolist()

    def _weights(self, assignment: Dict[str, int]) -> List[float]:
        """Per-gate durations of the partial *assignment*, as floats."""
        out = self._static[:]
        get = assignment.get
        rows = self._rows
        for i, control, target in self._slots:
            hc = get(control)
            ht = get(target)
            # An unplaced endpoint reads the diagonal: the best case.
            if hc is None:
                hc = ht
            elif ht is None:
                ht = hc
            if hc is not None:
                out[i] = rows[hc][ht]
        return out

    def _plan(self, var: Optional[str]) -> tuple:
        """How to walk the DAG when *var* varies (``None``: nothing).

        Returns ``(own, fixed, moving, fixed_sinks, moving_sinks)``:
        *var*'s CNOT slots as ``(gate, other var, table)``, where
        ``table[h]`` is the slot's duration vector over candidates once
        the other var sits at ``h``; the gates that descend from none of
        them, with their predecessors; the rest, as ``(gate, first
        moving predecessor or None, other moving ones, fixed ones)``;
        and the sinks of each group. Memoized per variable.
        """
        plan = self._plans.get(var)
        if plan is not None:
            return plan
        own = [(i, target, self._into) if control == var
               else (i, control, self._from)
               for i, control, target in self._slots
               if var in (control, target)]
        varying = {i for i, _, _ in own}
        fixed, moving = [], []
        for i, ps in enumerate(self._preds):
            if i in varying or not varying.isdisjoint(ps):
                vec = [p for p in ps if p in varying]
                moving.append((i, vec[0] if vec else None, tuple(vec[1:]),
                               tuple(p for p in ps if p not in varying)))
                varying.add(i)
            else:
                fixed.append((i, ps))
        succs = self._dag.succs
        plan = (own, fixed, moving,
                [i for i, _ in fixed if not succs[i]],
                [i for i, *_ in moving if not succs[i]])
        self._plans[var] = plan
        return plan

    @staticmethod
    def _walk(plan: tuple, weights: list):
        """Critical-path length: a float, or a vector over the candidates
        when the plan has moving gates.

        Finish times never fall along an edge (weights are
        nonnegative), so the longest path ends at a sink.
        """
        _, fixed, moving, fixed_sinks, moving_sinks = plan
        finish: list = [0.0] * len(weights)
        # Nearly every gate has at most two predecessors; a max() call
        # per gate would cost more than the rest of the walk.
        for i, ps in fixed:
            k = len(ps)
            if k == 1:
                finish[i] = finish[ps[0]] + weights[i]
            elif k == 2:
                a = finish[ps[0]]
                b = finish[ps[1]]
                finish[i] = (a if a >= b else b) + weights[i]
            elif k:
                finish[i] = max([finish[p] for p in ps]) + weights[i]
            else:
                finish[i] = 0.0 + weights[i]
        maximum = np.maximum
        for i, first, others, flat in moving:
            if first is None:
                start = max([finish[p] for p in flat], default=0.0)
            else:
                start = finish[first]
                for p in others:
                    start = maximum(start, finish[p])
                if flat:
                    start = maximum(start, max([finish[p] for p in flat]))
            finish[i] = start + weights[i]
        longest = max([finish[i] for i in fixed_sinks], default=0.0)
        for i in moving_sinks:
            longest = maximum(longest, finish[i])
        return longest


class TimeSmtMapper(Mapper):
    """T-SMT / T-SMT*: minimize schedule makespan.

    The noise-unaware flavor (``t-smt``) assumes uniform CNOT durations
    and the static coherence bound MT (Constraint 4); the calibrated
    flavor (``t-smt*``) uses the Delta duration matrix and per-qubit
    coherence deadlines (Constraints 5-6).
    """

    def __init__(self, options: CompilerOptions) -> None:
        if options.variant not in ("t-smt", "t-smt*"):
            raise MappingError(
                f"TimeSmtMapper cannot run variant {options.variant!r}")
        self.options = options

    def run(self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables) -> MappingResult:
        self.check_fits(circuit, calibration)
        search_qubits = _interacting_qubits(circuit)
        model = Model()
        for q in search_qubits:
            model.add_variable(_var(q), calibration.topology.iter_qubits())
        uniform = self.options.variant == "t-smt"
        if uniform:
            self._break_symmetry(model, search_qubits, calibration)

        model.objective = _MakespanObjective(circuit, calibration, tables,
                                             self.options, search_qubits)
        solver = BranchAndBoundSolver(
            time_limit=self.options.solver_time_limit)
        # The noise-unaware flavor must stay calibration-independent, so
        # it cannot take the greedy (calibration-driven) warm start; it
        # keeps the identity seed, reflected into the symmetry-broken
        # quadrant so it survives the restricted domain.
        if uniform:
            initial = self._reflect_into_quadrant(
                _identity_warm_start(search_qubits), search_qubits,
                calibration)
        else:
            initial = _greedy_warm_start(circuit, calibration, tables,
                                         search_qubits)
        start = time.perf_counter()
        result = solver.solve(model, initial=initial)
        elapsed = time.perf_counter() - start
        if result.assignment is None:
            raise MappingError("T-SMT found no feasible placement")
        partial = {q: result.assignment[_var(q)] for q in search_qubits}
        placement = _complete_placement(circuit, calibration, partial)
        out = MappingResult(placement=placement,
                            objective=result.objective,
                            optimal=result.optimal,
                            solve_time=elapsed, nodes=result.nodes,
                            stats=_stats_dict(result))
        out.validate(circuit, calibration)
        return out

    @staticmethod
    def _break_symmetry(model: Model, search_qubits: List[int],
                        calibration: Calibration) -> None:
        """Restrict the first variable to one grid quadrant.

        With uniform gate times the machine model is invariant under the
        grid's reflections, so every solution has a representative with
        the first searched qubit in the canonical quadrant.
        """
        topo = calibration.topology
        canonical = [h for h in topo.iter_qubits()
                     if topo.coords(h)[0] <= (topo.mx - 1) / 2
                     and topo.coords(h)[1] <= (topo.my - 1) / 2]
        first = model.variable(_var(search_qubits[0]))
        model.variables[model.variables.index(first)] = Variable(
            name=first.name, domain=tuple(canonical))

    @staticmethod
    def _reflect_into_quadrant(initial: Dict[str, int],
                               search_qubits: List[int],
                               calibration: Calibration) -> Dict[str, int]:
        """Map a warm start into the symmetry-broken quadrant.

        The uniform variant restricts the first searched qubit's domain
        to one grid quadrant (:meth:`_break_symmetry`); a greedy warm
        start may land outside it and would be rejected by validation.
        Grid automorphisms preserve the uniform makespan objective, so
        reflecting the whole placement through one that brings the
        first qubit inside keeps the warm start's value intact.
        """
        topo = calibration.topology
        canonical = {h for h in topo.iter_qubits()
                     if topo.coords(h)[0] <= (topo.mx - 1) / 2
                     and topo.coords(h)[1] <= (topo.my - 1) / 2}
        first = _var(search_qubits[0])
        if initial.get(first) in canonical:
            return initial
        for perm in topo.automorphisms():
            mapped = {name: perm[h] for name, h in initial.items()}
            if mapped[first] in canonical:
                return mapped
        return initial
