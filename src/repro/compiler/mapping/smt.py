"""Optimization-based mapping (the paper's §4, "Optimal Compilation").

Builds a constraint model per the paper's formulation and hands it to
the branch-and-bound engine (the Z3 substitute, see the README's
"Substitutions"):

* Constraint 1 — every program qubit maps inside the grid: encoded in
  the variable domains (all hardware qubit ids).
* Constraint 2 — distinct locations: :class:`AllDifferent`.
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
from typing import Callable, Dict, List, Optional, Tuple

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
    AllDifferent,
    BranchAndBoundSolver,
    CallableObjective,
    Model,
    PairTerm,
    SumObjective,
    UnaryTerm,
    Variable,
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


def _base_model(search_qubits: List[int],
                calibration: Calibration) -> Model:
    """Variables (Constraint 1 via domains) + all-different (Constraint 2)."""
    model = Model()
    hw = list(calibration.topology.iter_qubits())
    for q in search_qubits:
        model.add_variable(_var(q), hw)
    model.add_constraint(AllDifferent([_var(q) for q in search_qubits]))
    return model


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
                      tables: ReliabilityTables,
                      omega: float) -> Tuple[Model, List[int]]:
    """Build the R-SMT* assignment model (Eq. 12) for *circuit*.

    Exposed as a module-level helper so the solver benchmarks and
    tests can drive the exact production model through the generic
    reference engine (``engine="generic"``) without going through a
    full compile.

    Returns:
        (model with its objective set, the interacting search qubits).
    """
    search_qubits = _interacting_qubits(circuit)
    model = _base_model(search_qubits, calibration)

    # Dense score tables, computed once per run and shared by every
    # term: the vector engine compiles them straight into its cost
    # matrices instead of probing Python closures H^2 times per pair.
    # The CNOT table is the snapshot's shared log-reliability table.
    readout_logrel = np.array(
        [math.log(max(calibration.readout_reliability(h), _LOG_FLOOR))
         for h in calibration.topology.iter_qubits()])
    cnot_logrel = tables.log_reliability_table()
    cnot_rows = cnot_logrel.tolist()

    terms: List = []
    # Readout terms: one per measurement (Constraint 10). Readouts on
    # non-interacting qubits are optimized by the greedy completion.
    readout_counts = Counter(g.qubits[0] for g in circuit.measurements)
    for q, count in sorted(readout_counts.items()):
        if q not in search_qubits:
            continue

        def score(h: int, _count: int = count) -> float:
            rel = max(calibration.readout_reliability(h), _LOG_FLOOR)
            return omega * _count * math.log(rel)
        terms.append(UnaryTerm(_var(q), score,
                               vector=omega * count * readout_logrel))
    # CNOT terms: one per ordered interacting pair, weighted by the
    # number of CNOTs between the pair (Constraint 11 via EC lookups).
    cnot_counts = Counter((g.control, g.target) for g in circuit.cnots)
    for (qc, qt), count in sorted(cnot_counts.items()):
        def score(hc: int, ht: int, _count: int = count) -> float:
            if hc == ht:
                return _count * math.log(_LOG_FLOOR)
            return (1.0 - omega) * _count * cnot_rows[hc][ht]
        matrix = (1.0 - omega) * count * cnot_logrel
        np.fill_diagonal(matrix, count * math.log(_LOG_FLOOR))
        terms.append(PairTerm(_var(qc), _var(qt), score, matrix=matrix))

    model.objective = SumObjective(terms)
    return model, search_qubits


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
        model, search_qubits = reliability_model(
            circuit, calibration, tables, self.options.omega)
        solver = BranchAndBoundSolver(
            time_limit=self.options.solver_time_limit)
        start = time.perf_counter()
        result = solver.solve(
            model,
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
        model = _base_model(search_qubits, calibration)
        dag = DependencyDAG.from_circuit(circuit)
        uniform = self.options.variant == "t-smt"
        if uniform:
            self._break_symmetry(model, search_qubits, calibration)

        all_hw = list(calibration.topology.iter_qubits())
        rest_qubits = [q for q in range(circuit.n_qubits)
                       if q not in search_qubits]

        def value_fn(assignment: Dict[str, int]) -> float:
            # Non-interacting qubits do not affect the makespan; fill
            # them with any free locations (cheap, called per leaf).
            placement = {q: assignment[_var(q)] for q in search_qubits}
            used = set(placement.values())
            free = (h for h in all_hw if h not in used)
            for q in rest_qubits:
                placement[q] = next(free)
            return -makespan_of(circuit, placement, calibration, tables,
                                self.options, dag=dag)

        durations = self._optimistic_durations(circuit, calibration, tables)

        def bound_fn(assignment: Dict[str, int], domains) -> float:
            return -dag.longest_path_length(durations(assignment))

        model.objective = CallableObjective(value_fn, bound_fn)
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

    def _optimistic_durations(
            self, circuit: Circuit, calibration: Calibration,
            tables: ReliabilityTables
    ) -> Callable[[Dict[str, int]], List[float]]:
        """Compile the admissible per-gate durations of the bound.

        CNOTs with both endpoints placed get their true routed duration;
        one placed endpoint gets that location's best-case routed time;
        none gets the global best-case adjacent-CNOT time.

        Everything the assignment cannot change is computed here, once
        per solve: the static weights of every other gate, one
        ``(gate, control var, target var)`` slot per CNOT, the duration
        table the slots read (the snapshot's Delta table, or the
        uniform-duration table for ``t-smt``) and its row minima. The
        returned function then only fills the CNOT slots of a copy of
        the static weights, so each value probe costs one dict lookup
        per CNOT endpoint.
        """
        n_hw = calibration.topology.n_qubits
        if self.options.variant == "t-smt":
            tau = self.options.uniform_cnot_slots
            duration = [[tables.uniform_duration(hc, ht, tau_cnot=tau)
                         if hc != ht else math.inf for ht in range(n_hw)]
                        for hc in range(n_hw)]
            min_cnot = tau
            min_from = [tau] * n_hw
        else:
            duration = tables.delta_table().tolist()
            min_cnot = min(e.cnot_duration_slots
                           for e in calibration.edges.values())
            min_from = [min(row) for row in duration]

        static: List[float] = []
        slots: List[Tuple[int, str, str]] = []
        for i, gate in enumerate(circuit.gates):
            if gate.name == "barrier":
                static.append(0.0)
            elif gate.is_measure:
                static.append(float(READOUT_SLOTS))
            elif gate.is_two_qubit:
                static.append(min_cnot)
                slots.append((i, _var(gate.qubits[0]), _var(gate.qubits[1])))
            else:
                static.append(float(SINGLE_QUBIT_SLOTS))

        def weights(assignment: Dict[str, int]) -> List[float]:
            out = static[:]
            get = assignment.get
            for i, control, target in slots:
                hc = get(control)
                ht = get(target)
                if hc is None:
                    if ht is not None:
                        out[i] = min_from[ht]
                elif ht is None or hc == ht:
                    out[i] = min_from[hc]
                else:
                    out[i] = duration[hc][ht]
            return out
        return weights
