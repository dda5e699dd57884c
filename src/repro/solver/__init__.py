"""Finite-domain constraint optimization (the repo's SMT-solver substrate)."""

from repro.solver.bnb import BranchAndBoundSolver, SolveResult, SolverStats
from repro.solver.bounds import AssignmentMatrices, compile_assignment
from repro.solver.constraints import AllDifferent
from repro.solver.model import Assignment, Constraint, Model, Objective, Variable
from repro.solver.objective import (
    CallableObjective,
    PairTerm,
    SumObjective,
    Term,
    UnaryTerm,
)

__all__ = [
    "AllDifferent",
    "Assignment",
    "AssignmentMatrices",
    "compile_assignment",
    "SolverStats",
    "BranchAndBoundSolver",
    "CallableObjective",
    "Constraint",
    "Model",
    "Objective",
    "PairTerm",
    "SolveResult",
    "SumObjective",
    "Term",
    "UnaryTerm",
    "Variable",
]
