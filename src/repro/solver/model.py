"""Finite-domain constraint-optimization models.

This package is the repo's stand-in for the Z3 SMT solver the paper uses
(see the README's "Substitutions"): a model holds integer variables with explicit finite
domains, constraints, and a maximization objective; the branch-and-bound
engine in :mod:`repro.solver.bnb` searches for a provably optimal
assignment.
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


class Constraint:
    """Base class for constraints.

    Subclasses implement :meth:`is_satisfied` over complete assignments
    and may override :meth:`prune` to perform forward-checking after a
    variable is fixed.
    """

    #: Names of the variables this constraint mentions.
    scope: Tuple[str, ...] = ()

    def is_satisfied(self, assignment: Assignment) -> bool:
        """Check the constraint on a complete assignment."""
        raise NotImplementedError

    def check_partial(self, assignment: Assignment) -> bool:
        """Check on a partial assignment; default checks only when the
        full scope is assigned."""
        if all(v in assignment for v in self.scope):
            return self.is_satisfied(assignment)
        return True

    def prune(self, var: str, value: int, assignment: Assignment,
              domains: Dict[str, set]) -> Optional[List[Tuple[str, int]]]:
        """Forward-check after ``var := value``.

        Returns:
            List of (variable, removed value) prunings applied to
            *domains*, or ``None`` if a domain wiped out (dead end).
            The solver undoes the prunings on backtrack.
        """
        return []


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
    """A constraint-optimization problem.

    Attributes:
        variables: Decision variables in branching order preference.
        constraints: Constraints over those variables.
        objective: Maximization objective (``None`` = satisfaction only).
    """

    variables: List[Variable] = field(default_factory=list)
    constraints: List[Constraint] = field(default_factory=list)
    objective: Optional[Objective] = None

    def add_variable(self, name: str, domain: Sequence[int]) -> Variable:
        """Create and register a variable; names must be unique."""
        if any(v.name == name for v in self.variables):
            raise SolverError(f"duplicate variable name {name!r}")
        var = Variable(name=name, domain=tuple(domain))
        self.variables.append(var)
        return var

    def add_constraint(self, constraint: Constraint) -> None:
        known = {v.name for v in self.variables}
        missing = [n for n in constraint.scope if n not in known]
        if missing:
            raise SolverError(f"constraint references unknown vars {missing}")
        self.constraints.append(constraint)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SolverError(f"no variable named {name!r}")

    def validate(self, assignment: Assignment) -> bool:
        """Whether a complete assignment satisfies every constraint."""
        if set(assignment) != {v.name for v in self.variables}:
            return False
        for v in self.variables:
            if assignment[v.name] not in v.domain:
                return False
        return all(c.is_satisfied(assignment) for c in self.constraints)
