"""Constraint library for the finite-domain solver.

Covers what the paper's formulation needs: distinct qubit locations
(Constraint 2 — :class:`AllDifferent`); domain restriction (Constraint 1)
is encoded directly in variable domains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.solver.model import Assignment, Constraint


class AllDifferent(Constraint):
    """All variables in scope take pairwise distinct values."""

    def __init__(self, names: Sequence[str]) -> None:
        self.scope = tuple(names)

    def is_satisfied(self, assignment: Assignment) -> bool:
        values = [assignment[n] for n in self.scope]
        return len(set(values)) == len(values)

    def check_partial(self, assignment: Assignment) -> bool:
        seen: Set[int] = set()
        for name in self.scope:
            if name in assignment:
                if assignment[name] in seen:
                    return False
                seen.add(assignment[name])
        return True

    def prune(self, var: str, value: int, assignment: Assignment,
              domains: Dict[str, set]) -> Optional[List[Tuple[str, int]]]:
        if var not in self.scope:
            return []
        removed: List[Tuple[str, int]] = []
        for other in self.scope:
            if other == var or other in assignment:
                continue
            domain = domains[other]
            if value in domain:
                domain.discard(value)
                removed.append((other, value))
                if not domain:
                    # Caller undoes `removed`; signal the wipe-out.
                    for name, val in removed:
                        domains[name].add(val)
                    return None
        return removed
