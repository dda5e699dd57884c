"""Branch-and-bound search over finite-domain models.

Depth-first search with forward checking and admissible objective
pruning. Assignment-shaped models (one AllDifferent over every variable
plus a decomposable sum objective — the paper's R-SMT* formulation)
are compiled to numpy cost matrices and solved by the vectorized kernel
in :mod:`repro.solver.bounds`. Everything else (non-decomposable
objectives such as the T-SMT makespan, exotic constraints,
satisfaction problems) runs on the generic engine, which remains the
semantic reference: at each node it asks the objective once for the
bounds of every candidate value (:meth:`Objective.probe`), orders the
candidates by them and prunes each child on its own bound. Both
engines prove optimality; on paper-scale mapping
problems they finish in well under a second, and like the paper's Z3
runs they blow up super-polynomially as programs grow, which is exactly
the Fig.-11 behavior — the vector kernel just moves the wall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SolverError
from repro.solver.bounds import VectorSearch, compile_assignment
from repro.solver.model import Assignment, Model


@dataclass
class SolverStats:
    """Search-effort counters surfaced through mapping metadata.

    Attributes:
        engine: ``"vector"`` or ``"generic"``.
        nodes: Search-tree nodes expanded.
        prunes: Subtrees cut by the admissible bound.
        incumbents: Times the best-known solution improved (the warm
            start counts as the first).
    """

    engine: str = "generic"
    nodes: int = 0
    prunes: int = 0
    incumbents: int = 0


@dataclass
class SolveResult:
    """Outcome of a branch-and-bound run.

    Attributes:
        assignment: Best complete assignment found (``None`` if none).
        objective: Its objective value (``None`` for pure satisfaction).
        optimal: Whether the search space was exhausted (proof of
            optimality / infeasibility).
        nodes: Search-tree nodes expanded.
        elapsed: Wall-clock seconds spent.
        timed_out: Whether the time limit interrupted the search.
        stats: Detailed search counters (engine, prunes, incumbents).
    """

    assignment: Optional[Assignment]
    objective: Optional[float]
    optimal: bool
    nodes: int
    elapsed: float
    timed_out: bool
    stats: Optional[SolverStats] = None

    @property
    def feasible(self) -> bool:
        return self.assignment is not None


@dataclass
class BranchAndBoundSolver:
    """Configurable DFS branch-and-bound engine.

    Attributes:
        time_limit: Wall-clock budget in seconds (``None`` = unlimited).
        node_limit: Maximum nodes to expand (``None`` = unlimited).
        first_solution_only: Stop at the first feasible assignment.
        engine: ``"auto"`` routes assignment-shaped models to the
            vectorized kernel and everything else to the generic
            engine; ``"generic"`` forces the reference engine (the
            speedup benchmarks pin vector-vs-generic on this knob);
            ``"vector"`` demands the kernel and raises if the model
            does not fit it.
    """

    time_limit: Optional[float] = None
    node_limit: Optional[int] = None
    first_solution_only: bool = False
    engine: str = "auto"

    def solve(self, model: Model,
              initial: Optional[Assignment] = None) -> SolveResult:
        """Maximize the model's objective (or find any solution).

        Args:
            model: The problem to solve.
            initial: Optional warm-start assignment; if feasible it seeds
                the incumbent so pruning starts immediately.
        """
        if not model.variables:
            raise SolverError("model has no variables")
        if self.engine not in ("auto", "vector", "generic"):
            raise SolverError(f"unknown solver engine {self.engine!r}")
        start = time.perf_counter()
        mats = None
        if self.engine != "generic":
            mats = compile_assignment(model)
            if mats is None and self.engine == "vector":
                raise SolverError(
                    "model is not assignment-shaped; vector engine "
                    "cannot run it")
        if mats is not None:
            return self._solve_vector(model, mats, initial, start)
        return self._solve_generic(model, initial, start)

    # ------------------------------------------------------------------
    def _solve_vector(self, model: Model, mats, initial,
                      start: float) -> SolveResult:
        search = VectorSearch(
            mats, time_limit=self.time_limit, node_limit=self.node_limit,
            first_solution_only=self.first_solution_only, start=start)
        # An invalid warm start is dropped and the search starts cold
        # (the contract the mappers rely on); a valid one is seeded with
        # its exact objective value.
        if initial is not None and model.validate(initial):
            col_of = {int(v): c for c, v in enumerate(mats.values)}
            search.seed([col_of[initial[name]] for name in mats.var_names],
                        model.objective.value(initial))
        completed = search.run()
        elapsed = time.perf_counter() - start
        assignment = None
        if search.best_cols is not None:
            assignment = {name: int(mats.values[c])
                          for name, c in zip(mats.var_names, search.best_cols)}
        stats = SolverStats(engine="vector", nodes=search.nodes,
                            prunes=search.prunes,
                            incumbents=search.incumbents)
        return SolveResult(
            assignment=assignment,
            objective=None if assignment is None else search.best_value,
            optimal=completed and not search.truncated,
            nodes=search.nodes,
            elapsed=elapsed,
            timed_out=not completed,
            stats=stats,
        )

    def _solve_generic(self, model: Model, initial, start: float
                       ) -> SolveResult:
        search = _Search(model, self, start)
        if initial is not None and model.validate(initial):
            search.best = dict(initial)
            search.incumbents += 1
            if model.objective is not None:
                search.best_value = model.objective.value(initial)
        domains = {v.name: set(v.domain) for v in model.variables}
        try:
            search.run({}, domains)
            timed_out = False
        except _TimeUp:
            timed_out = True
        elapsed = time.perf_counter() - start
        stats = SolverStats(engine="generic", nodes=search.nodes,
                            prunes=search.prunes,
                            incumbents=search.incumbents)
        return SolveResult(
            assignment=search.best,
            objective=search.best_value if model.objective else None,
            optimal=not timed_out and not search.truncated,
            nodes=search.nodes,
            elapsed=elapsed,
            timed_out=timed_out,
            stats=stats,
        )


class _TimeUp(Exception):
    """Internal: raised when the time budget is exhausted."""


class _Search:
    """Mutable state of one generic branch-and-bound run."""

    def __init__(self, model: Model, config: BranchAndBoundSolver,
                 start: float) -> None:
        self.model = model
        self.config = config
        self.start = start
        self.nodes = 0
        self.prunes = 0
        self.incumbents = 0
        self.best: Optional[Assignment] = None
        self.best_value = -float("inf")
        self.truncated = False
        # Constraints indexed by variable for fast partial checks.
        self.by_var: Dict[str, list] = {v.name: [] for v in model.variables}
        for c in model.constraints:
            for name in c.scope:
                self.by_var[name].append(c)

    def run(self, assignment: Assignment, domains: Dict[str, set],
            bound: Optional[float] = None) -> None:
        """Expand one node.

        Args:
            bound: The admissible objective bound the parent's value
                probe already computed for this assignment (over the
                parent's pre-pruning domains — a superset, so still
                admissible here). ``None`` at the root or when the
                parent had no probe; computed fresh then.
        """
        self._tick()
        unassigned = [v.name for v in self.model.variables
                      if v.name not in assignment]
        if not unassigned:
            self._record(assignment)
            return
        if self.model.objective is not None and self.best is not None:
            if bound is None:
                bound = self.model.objective.bound(assignment, domains)
            if bound <= self.best_value + 1e-12:
                self.prunes += 1
                return
        var = min(unassigned, key=lambda n: len(domains[n]))
        for value, child_bound in self._ordered_values(var, assignment,
                                                       domains):
            if (child_bound is not None and self.best is not None
                    and child_bound <= self.best_value + 1e-12):
                self.prunes += 1
                continue  # the probe already proves this subtree beaten
            assignment[var] = value
            if self._consistent(var, assignment):
                removed = self._forward_check(var, value, assignment, domains)
                if removed is not None:
                    self.run(assignment, domains, bound=child_bound)
                    for name, val in removed:
                        domains[name].add(val)
            del assignment[var]
            if self.best is not None and self.config.first_solution_only:
                return

    # ------------------------------------------------------------------
    def _ordered_values(self, var: str, assignment: Assignment,
                        domains: Dict[str, set]
                        ) -> List[Tuple[int, Optional[float]]]:
        """(value, probed bound) pairs, most promising value first.

        One :meth:`Objective.probe` call bounds every value of the
        node's branching variable. The bounds ride along in the returned
        pairs, so each child node prunes on its own directly instead of
        bounding itself again. The sort is stable: tied values keep
        ascending order.
        """
        values = sorted(domains[var])
        objective = self.model.objective
        if objective is None or len(values) <= 1:
            return [(v, None) for v in values]

        bounds = dict(zip(values, objective.probe(var, values, assignment,
                                                  domains)))
        values.sort(key=bounds.__getitem__, reverse=True)
        return [(v, bounds[v]) for v in values]

    def _consistent(self, var: str, assignment: Assignment) -> bool:
        return all(c.check_partial(assignment) for c in self.by_var[var])

    def _forward_check(self, var: str, value: int, assignment: Assignment,
                       domains: Dict[str, set]
                       ) -> Optional[List[Tuple[str, int]]]:
        removed: List[Tuple[str, int]] = []
        for c in self.by_var[var]:
            result = c.prune(var, value, assignment, domains)
            if result is None:
                for name, val in removed:
                    domains[name].add(val)
                return None
            removed.extend(result)
        return removed

    def _record(self, assignment: Assignment) -> None:
        if self.model.objective is None:
            if self.best is None:
                self.best = dict(assignment)
                self.incumbents += 1
            return
        value = self.model.objective.value(assignment)
        if value > self.best_value:
            self.best_value = value
            self.best = dict(assignment)
            self.incumbents += 1

    def _tick(self) -> None:
        self.nodes += 1
        config = self.config
        if config.node_limit is not None and self.nodes > config.node_limit:
            self.truncated = True
            raise _TimeUp
        if config.time_limit is not None and self.nodes % 256 == 0:
            if time.perf_counter() - self.start > config.time_limit:
                raise _TimeUp
