"""Finite-domain constraint-optimization models.

This package is the repo's stand-in for the Z3 SMT solver the paper uses
(see the README's "Substitutions"): a model holds integer variables with
explicit finite domains, which take pairwise distinct values (the
paper's Constraint 2), and a maximization objective; the generic
branch-and-bound engine in :mod:`repro.solver.bnb` searches for a
provably optimal assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import SolverError

Assignment = Dict[str, int]


@dataclass(frozen=True)
class Variable:
    """An integer decision variable over an explicit finite domain."""

    name: str
    domain: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise SolverError(f"variable {self.name!r} has empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SolverError(f"variable {self.name!r} has duplicate values")


class Objective:
    """Base class for maximization objectives."""

    def value(self, assignment: Assignment) -> float:
        """Objective value of a complete assignment."""
        raise NotImplementedError

    def bound(self, assignment: Assignment,
              domains: Dict[str, set]) -> float:
        """Optimistic (admissible) upper bound for any completion of the
        partial *assignment* given the remaining *domains*."""
        raise NotImplementedError

    def probe(self, var: str, values: Sequence[int], assignment: Assignment,
              domains: Dict[str, set]) -> List[float]:
        """The :meth:`bound` of ``assignment | {var: v}`` for each of
        *values*, in order (*var* is unassigned).

        The search asks once per node for every candidate of its
        branching variable. This default assigns each value in turn and
        leaves *assignment* as it found it; an objective that can bound
        all candidates in one pass overrides it.
        """
        bounds: List[float] = []
        for value in values:
            assignment[var] = value
            try:
                bounds.append(self.bound(assignment, domains))
            finally:
                del assignment[var]
        return bounds


@dataclass
class Model:
    """A constraint-optimization problem: variables that take pairwise
    distinct values, and an objective to maximize.

    Attributes:
        variables: Decision variables in branching order preference.
        objective: Maximization objective, set before solving.
    """

    variables: List[Variable] = field(default_factory=list)
    objective: Optional[Objective] = None

    def add_variable(self, name: str, domain: Sequence[int]) -> Variable:
        """Create and register a variable; names must be unique."""
        if any(v.name == name for v in self.variables):
            raise SolverError(f"duplicate variable name {name!r}")
        var = Variable(name=name, domain=tuple(domain))
        self.variables.append(var)
        return var

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SolverError(f"no variable named {name!r}")

    def validate(self, assignment: Assignment) -> bool:
        """Whether a complete assignment gives every variable a distinct
        value from its domain."""
        if set(assignment) != {v.name for v in self.variables}:
            return False
        if len(set(assignment.values())) != len(assignment):
            return False
        return all(assignment[v.name] in v.domain for v in self.variables)
