"""CHP-style stabilizer simulation subsystem (Aaronson–Gottesman).

Polynomial-time noisy sampling for Clifford programs, from the same
:class:`~repro.simulator.trace.ProgramTrace` error-site table the dense
engine consumes:

* :mod:`~repro.simulator.stabilizer.clifford` — the ``is_clifford``
  analysis pass (single source of truth for the tracked gate set);
* :mod:`~repro.simulator.stabilizer.tableau` — a CHP tableau whose
  phases are symbolic GF(2)-affine expressions, so one pass covers
  every error plan;
* :mod:`~repro.simulator.stabilizer.program` — the per-trace symbolic
  lowering plus the vectorized host-numpy trial sampler, which folds
  and renders shots on packed 64-bit words;
* :mod:`~repro.simulator.stabilizer.engine` — the sampling step
  :func:`~repro.simulator.execute` runs for ``engine="stabilizer"``
  and for Clifford programs under ``engine="auto"``, plus that
  router's dense-fallback notice.
"""

from repro.simulator.stabilizer.clifford import (
    CLIFFORD_GATES,
    first_non_clifford,
    is_clifford,
)
from repro.simulator.stabilizer.program import (
    StabilizerProgram,
    sample_stabilizer_counts,
    stabilizer_program,
)
from repro.simulator.stabilizer.tableau import SymbolicTableau

__all__ = [
    "CLIFFORD_GATES",
    "StabilizerProgram",
    "SymbolicTableau",
    "first_non_clifford",
    "is_clifford",
    "sample_stabilizer_counts",
    "stabilizer_program",
]
