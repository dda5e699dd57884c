"""Branch-and-bound search over the two problems the mappers pose.

Both place every variable on its own value (the paper's Constraint 2)
and maximize an objective by depth-first search with forward checking
and admissible objective pruning. :meth:`BranchAndBoundSolver.solve`
runs the engine the problem's type names. R-SMT*'s Eq.-12 cost matrices
(:class:`~repro.solver.bounds.AssignmentMatrices`) run on the vectorized
kernel in :mod:`repro.solver.bounds`. A :class:`Model` (T-SMT's makespan
objective, and the reference models the tests solve) runs on the
generic engine: at each node it asks the objective once for the bounds
of every candidate value (:meth:`Objective.probe`), orders the
candidates by them and prunes each child on its own bound. Both
engines prove optimality; on paper-scale mapping
problems they finish in well under a second, and like the paper's Z3
runs they blow up super-polynomially as programs grow, which is exactly
the Fig.-11 behavior — the vector kernel just moves the wall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SolverError
from repro.solver.bounds import AssignmentMatrices, VectorSearch
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
        objective: Its objective value (``None`` without an assignment).
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
    """Depth-first branch-and-bound engine.

    Attributes:
        time_limit: Wall-clock budget in seconds (``None`` = unlimited).
        node_limit: Maximum nodes to expand (``None`` = unlimited).
    """

    time_limit: Optional[float] = None
    node_limit: Optional[int] = None

    def solve(self, problem: Union[AssignmentMatrices, Model],
              initial: Optional[Assignment] = None) -> SolveResult:
        """Maximize the problem's objective.

        Args:
            problem: Cost matrices (vectorized kernel) or a model with
                its objective set (generic engine).
            initial: Optional warm-start assignment; if feasible it seeds
                the incumbent so pruning starts immediately. An
                infeasible one is dropped and the search starts cold
                (the contract the mappers rely on).
        """
        start = time.perf_counter()
        if isinstance(problem, AssignmentMatrices):
            return self._solve_vector(problem, initial, start)
        return self._solve_generic(problem, initial, start)

    # ------------------------------------------------------------------
    def _solve_vector(self, mats: AssignmentMatrices, initial,
                      start: float) -> SolveResult:
        search = VectorSearch(mats, time_limit=self.time_limit,
                              node_limit=self.node_limit, start=start)
        cols = None if initial is None else mats.columns(initial)
        if cols is not None:
            search.seed(cols, mats.value(cols))
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
        if not model.variables:
            raise SolverError("model has no variables")
        if model.objective is None:
            raise SolverError("model has no objective")
        search = _Search(model, self, start)
        if initial is not None and model.validate(initial):
            search.best = dict(initial)
            search.incumbents += 1
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
            objective=None if search.best is None else search.best_value,
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
        if self.best is not None:
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
            removed = self._forward_check(var, value, unassigned, domains)
            if removed is not None:
                assignment[var] = value
                self.run(assignment, domains, bound=child_bound)
                del assignment[var]
                for name in removed:
                    domains[name].add(value)

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
        if len(values) <= 1:
            return [(v, None) for v in values]

        bounds = dict(zip(values, self.model.objective.probe(
            var, values, assignment, domains)))
        values.sort(key=bounds.__getitem__, reverse=True)
        return [(v, bounds[v]) for v in values]

    @staticmethod
    def _forward_check(var: str, value: int, unassigned: List[str],
                       domains: Dict[str, set]) -> Optional[List[str]]:
        """Remove *value* from the domain of every other unassigned
        variable, in model order: the variables whose domains lost it,
        or ``None``, with every domain restored, when one wipes out."""
        removed: List[str] = []
        for name in unassigned:
            domain = domains[name]
            if name != var and value in domain:
                domain.discard(value)
                removed.append(name)
                if not domain:
                    for other in removed:
                        domains[other].add(value)
                    return None
        return removed

    def _record(self, assignment: Assignment) -> None:
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
