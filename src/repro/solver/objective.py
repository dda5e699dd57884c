"""Objective functions for the branch-and-bound engine.

The paper's reliability objective (Eq. 12) is a weighted sum of per-gate
log-reliabilities, which decomposes into unary terms (readout on one
program qubit) and pairwise terms (a CNOT between two program qubits).
:class:`SumObjective` exploits that decomposition to compute tight
admissible bounds during search. :class:`CallableObjective` wraps a
non-decomposable objective given as plain functions; the T-SMT makespan
objective subclasses :class:`~repro.solver.model.Objective` directly
(``compiler/mapping/smt.py``) so it can bound all of a node's candidates
in one :meth:`~repro.solver.model.Objective.probe`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.exceptions import SolverError
from repro.solver.model import Assignment, Objective


class Term:
    """One additive objective term (maximization convention)."""

    scope: tuple

    def value(self, assignment: Assignment) -> float:
        raise NotImplementedError

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        """Optimistic score given partial assignment and live domains."""
        raise NotImplementedError


class UnaryTerm(Term):
    """Score depending on one variable, e.g. a readout reliability term.

    Args:
        name: Variable name.
        score: ``score(value) -> float``.
        vector: Optional dense score table indexed by raw value (valid
            when values are small non-negative ints, as hardware-qubit
            ids are). The vectorized kernel slices it directly instead
            of probing ``score`` once per value.
    """

    def __init__(self, name: str, score: Callable[[int], float],
                 vector=None) -> None:
        self.scope = (name,)
        self.score = score
        self.vector = vector
        self._cache: Dict[int, float] = {}

    def dense_vector(self):
        """Dense per-value score table, or ``None`` (probe fallback)."""
        return self.vector

    def _score(self, value: int) -> float:
        if value not in self._cache:
            self._cache[value] = self.score(value)
        return self._cache[value]

    def value(self, assignment: Assignment) -> float:
        return self._score(assignment[self.scope[0]])

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        name = self.scope[0]
        if name in assignment:
            return self._score(assignment[name])
        if not domains[name]:
            raise SolverError(f"empty domain for {name!r} while bounding")
        return max(self._score(v) for v in domains[name])


class PairTerm(Term):
    """Score depending on two variables, e.g. one CNOT's reliability.

    Args:
        a: First variable name.
        b: Second variable name.
        score: ``score(value_a, value_b) -> float``.
        matrix: Optional dense score table with ``matrix[va, vb]``
            indexed by raw values (valid when values are small
            non-negative ints). The vectorized kernel slices it instead
            of probing ``score`` per value pair.
    """

    def __init__(self, a: str, b: str,
                 score: Callable[[int, int], float],
                 matrix=None) -> None:
        self.scope = (a, b)
        self.score = score
        self.matrix = matrix
        self._cache: Dict[tuple, float] = {}

    def dense_matrix(self):
        """Dense score table, or ``None`` (probe fallback)."""
        return self.matrix

    def _score(self, va: int, vb: int) -> float:
        key = (va, vb)
        if key not in self._cache:
            self._cache[key] = self.score(va, vb)
        return self._cache[key]

    def value(self, assignment: Assignment) -> float:
        return self._score(assignment[self.scope[0]],
                           assignment[self.scope[1]])

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        a, b = self.scope
        a_vals = [assignment[a]] if a in assignment else list(domains[a])
        b_vals = [assignment[b]] if b in assignment else list(domains[b])
        if not a_vals or not b_vals:
            raise SolverError("empty domain while bounding pair term")
        if a in assignment and b in assignment:
            return self._score(a_vals[0], b_vals[0])
        best = -float("inf")
        for va in a_vals:
            for vb in b_vals:
                if va == vb:
                    continue  # mapping variables are all-different
                s = self._score(va, vb)
                if s > best:
                    best = s
        if best == -float("inf"):
            # Degenerate single-value domains colliding; let constraints
            # reject the branch rather than the bound.
            return self._score(a_vals[0], b_vals[0])
        return best


class SumObjective(Objective):
    """Sum of decomposable terms with per-term admissible bounds."""

    def __init__(self, terms: Sequence[Term]) -> None:
        self.terms = list(terms)

    def value(self, assignment: Assignment) -> float:
        return sum(t.value(assignment) for t in self.terms)

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        return sum(t.bound(assignment, domains) for t in self.terms)


class CallableObjective(Objective):
    """Wraps a non-decomposable objective.

    Args:
        value_fn: Complete-assignment objective.
        bound_fn: Optimistic bound for partial assignments; when omitted
            the bound is +inf (search degrades to exhaustive + incumbent
            pruning at leaves).
    """

    def __init__(self, value_fn: Callable[[Assignment], float],
                 bound_fn: Optional[
                     Callable[[Assignment, Dict[str, set]], float]] = None
                 ) -> None:
        self._value = value_fn
        self._bound = bound_fn

    def value(self, assignment: Assignment) -> float:
        return self._value(assignment)

    def bound(self, assignment: Assignment, domains: Dict[str, set]) -> float:
        if self._bound is None:
            return float("inf")
        return self._bound(assignment, domains)
