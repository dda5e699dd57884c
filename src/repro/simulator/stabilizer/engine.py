"""The ``"stabilizer"`` engine's sampling step and the ``"auto"``
router's dense-fallback notice; :func:`repro.simulator.execute`
dispatches to both."""

from __future__ import annotations

import warnings
from typing import Dict, Set, Tuple

import numpy as np

from repro.simulator.stabilizer.program import (
    sample_stabilizer_counts,
    stabilizer_program,
)
from repro.simulator.trace import ProgramTrace


class StabilizerEngine:
    """Polynomial-time noisy sampling for Clifford programs.

    Samples the same :class:`ProgramTrace` error-site table as the
    batched engine with the one-shot symbolic CHP pass
    (:mod:`repro.simulator.stabilizer.program`) instead of any dense
    statevector — cost is polynomial in qubits, so 100-qubit programs
    sample in seconds. All RNG draws are host numpy under the repo's
    sampling law (occurrence matrix, conditional Pauli choices, shared
    readout-flip sequence), so counts are deterministic per seed and
    bit-identical across serial/parallel sweeps.

    A class rather than a function so the stabilizer step has one
    entry point a profiler can wrap in place: ``execute`` looks
    :meth:`run` up on :data:`STABILIZER` at every call, so a wrapper
    set on the class (``perfbench/tracing.py`` sets one) sees every
    stabilizer execution.
    """

    def run(self, trace: ProgramTrace, trials: int,
            rng: np.random.Generator
            ) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Counts of *trials* shots of the Clifford *trace*, and its
        ideal distribution (empty past the coin cap)."""
        counts = sample_stabilizer_counts(trace, trials, rng)
        return counts, stabilizer_program(trace).ideal_distribution(trace)


#: The instance ``execute`` samples Clifford programs with.
STABILIZER = StabilizerEngine()

#: Non-Clifford gate names the router has already explained once.
_WARNED_NON_CLIFFORD: Set[str] = set()


def warn_dense_routing(gate) -> None:
    """Announce, once per gate name, that ``engine='auto'`` sends a
    non-Clifford program to the dense engine: it silently changes the
    scaling class, which is easy to misattribute in sweep timings."""
    if gate.name in _WARNED_NON_CLIFFORD:
        return
    _WARNED_NON_CLIFFORD.add(gate.name)
    warnings.warn(
        f"engine='auto': gate {gate.name!r} is not Clifford; routing "
        f"this (and further such) programs to the dense "
        f"engine='batched', which is exponential in qubits.",
        RuntimeWarning, stacklevel=4)
