"""Data-dependency DAG over the gates of a circuit.

The paper's scheduling constraint (Constraint 3) is expressed over the
dependency relation ``g2 > g1``: *g2* depends on *g1* when both touch a
common qubit and *g1* comes first in program order, with no intervening
gate on that qubit. This module materializes that relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.ir.circuit import Circuit
from repro.ir.gates import Gate


@dataclass
class DependencyDAG:
    """Immediate data dependencies between gate indices of a circuit.

    Attributes:
        circuit: The source circuit.
        preds: ``preds[i]`` — indices of gates that gate *i* directly
            depends on.
        succs: ``succs[i]`` — indices of gates directly depending on *i*.
    """

    circuit: Circuit
    preds: List[Set[int]] = field(default_factory=list)
    succs: List[Set[int]] = field(default_factory=list)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "DependencyDAG":
        """Build the DAG by chaining the last writer of each qubit."""
        n = len(circuit.gates)
        preds: List[Set[int]] = [set() for _ in range(n)]
        succs: List[Set[int]] = [set() for _ in range(n)]
        last_on_qubit: Dict[int, int] = {}
        for i, gate in enumerate(circuit.gates):
            for q in gate.qubits:
                j = last_on_qubit.get(q)
                if j is not None:
                    preds[i].add(j)
                    succs[j].add(i)
                last_on_qubit[q] = i
        return cls(circuit=circuit, preds=preds, succs=succs)

    def __len__(self) -> int:
        return len(self.preds)

    def gate(self, i: int) -> Gate:
        """The gate at DAG node *i*."""
        return self.circuit.gates[i]

    def roots(self) -> List[int]:
        """Gate indices with no dependencies."""
        return [i for i, p in enumerate(self.preds) if not p]

    def topological_order(self) -> List[int]:
        """A topological order of gate indices (program order works)."""
        return list(range(len(self.preds)))

    def is_topological(self, order: Sequence[int]) -> bool:
        """Check that *order* respects every dependency edge."""
        pos = {g: i for i, g in enumerate(order)}
        if len(pos) != len(self.preds):
            return False
        return all(pos[p] < pos[i]
                   for i, ps in enumerate(self.preds) for p in ps)

    def dependency_pairs(self) -> List[Tuple[int, int]]:
        """All immediate (pred, succ) edges."""
        return [(p, i) for i, ps in enumerate(self.preds) for p in sorted(ps)]

    def asap_levels(self) -> List[int]:
        """Unit-weight ASAP level of each gate (0-based)."""
        level = [0] * len(self.preds)
        for i in range(len(self.preds)):
            level[i] = max((level[p] + 1 for p in self.preds[i]), default=0)
        return level
