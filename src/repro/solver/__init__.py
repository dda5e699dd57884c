"""Finite-domain optimization (the repo's SMT-solver substrate).

:class:`BranchAndBoundSolver` takes the two problems the mappers pose:
R-SMT*'s Eq.-12 cost matrices (:func:`assignment_matrices`), solved by
the vectorized kernel, and T-SMT's :class:`Model`, solved by the
generic engine.
"""

from repro.solver.bnb import BranchAndBoundSolver, SolveResult, SolverStats
from repro.solver.bounds import AssignmentMatrices, assignment_matrices
from repro.solver.model import Assignment, Model, Objective, Variable

__all__ = [
    "Assignment",
    "AssignmentMatrices",
    "assignment_matrices",
    "SolverStats",
    "BranchAndBoundSolver",
    "Model",
    "Objective",
    "SolveResult",
    "Variable",
]
