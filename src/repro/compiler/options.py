"""Compiler configuration — Table 1 of the paper.

A :class:`CompilerOptions` value selects one row of Table 1 (variant,
routing policy, readout weight omega, solver limits). The named
constructors build the exact configurations the paper evaluates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.exceptions import CompilationError

#: Mapping algorithm names.
VARIANT_QISKIT = "qiskit"        # baseline: trivial layout, no noise data
VARIANT_T_SMT = "t-smt"          # minimize duration, uniform gate times
VARIANT_T_SMT_STAR = "t-smt*"    # minimize duration, calibrated times
VARIANT_R_SMT_STAR = "r-smt*"    # maximize reliability (noise-adaptive)
VARIANT_GREEDY_V = "greedyv*"    # heaviest-vertex-first heuristic
VARIANT_GREEDY_E = "greedye*"    # heaviest-edge-first heuristic

ALL_VARIANTS = (
    VARIANT_QISKIT, VARIANT_T_SMT, VARIANT_T_SMT_STAR,
    VARIANT_R_SMT_STAR, VARIANT_GREEDY_V, VARIANT_GREEDY_E,
)

#: Variants whose mapper runs the branch-and-bound solver: a time limit
#: can stop them before they prove their placement optimal.
SOLVER_VARIANTS = (VARIANT_T_SMT, VARIANT_T_SMT_STAR, VARIANT_R_SMT_STAR)

#: Routing policy names (paper §4.3 / §5).
ROUTE_RECTANGLE = "rr"     # rectangle reservation
ROUTE_ONE_BEND = "1bp"     # one-bend paths
ROUTE_BEST_PATH = "best"   # Dijkstra most-reliable path (heuristics)
ROUTE_SHORTEST = "shortest"  # noise-unaware shortest path (baseline)

ALL_ROUTES = (ROUTE_RECTANGLE, ROUTE_ONE_BEND, ROUTE_BEST_PATH,
              ROUTE_SHORTEST)


def _check_positive(name: str, value: float) -> None:
    """Reject a NaN, infinite, zero or negative budget. A NaN time limit
    or coherence bound never trips, and T-SMT's critical-path bound
    assumes nonnegative CNOT times."""
    if not (math.isfinite(value) and value > 0):
        raise CompilationError(
            f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class CompilerOptions:
    """Options selecting and tuning a compiler variant.

    Attributes:
        variant: One of :data:`ALL_VARIANTS`.
        routing: One of :data:`ALL_ROUTES`.
        omega: Readout-vs-CNOT weight of Eq. 12 (R-SMT* only).
        solver_time_limit: Branch-and-bound budget in seconds (finite
            and positive; ``None`` = unlimited).
        uniform_cnot_slots: CNOT duration assumed by the noise-unaware
            T-SMT variant, in timeslots (finite and positive).
        coherence_slots: Static coherence bound (Constraint 4) for the
            noise-unaware variant, in timeslots (finite and positive).
        enforce_coherence: Raise on coherence-deadline violations rather
            than only flagging them.
        peephole: Apply adjacent-inverse cancellation to the physical
            program (off by default — the paper's configurations,
            including the Qiskit 0.5.7 baseline, do no such cleanup).
        seed: Tie-breaking seed for heuristics.
    """

    variant: str = VARIANT_R_SMT_STAR
    routing: str = ROUTE_ONE_BEND
    omega: float = 0.5
    solver_time_limit: Optional[float] = 60.0
    uniform_cnot_slots: float = 3.0
    coherence_slots: float = 1000.0
    enforce_coherence: bool = False
    peephole: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in ALL_VARIANTS:
            raise CompilationError(f"unknown variant {self.variant!r}")
        if self.routing not in ALL_ROUTES:
            raise CompilationError(f"unknown routing {self.routing!r}")
        if not 0.0 <= self.omega <= 1.0:
            raise CompilationError("omega must lie in [0, 1]")
        if self.solver_time_limit is not None:
            _check_positive("solver_time_limit", self.solver_time_limit)
        _check_positive("uniform_cnot_slots", self.uniform_cnot_slots)
        _check_positive("coherence_slots", self.coherence_slots)

    @property
    def is_noise_aware(self) -> bool:
        """Whether the variant reads calibration data (the star variants)."""
        return self.variant not in (VARIANT_QISKIT, VARIANT_T_SMT)

    def with_(self, **changes) -> "CompilerOptions":
        """Functional update, e.g. ``opts.with_(omega=1.0)``."""
        return replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable content hash over every option field.

        Equal option values share a fingerprint across processes and
        sessions (unlike ``hash()``), which is what the sweep runtime's
        compile cache keys on.
        """
        parts = ";".join(f"{f.name}={getattr(self, f.name)!r}"
                         for f in fields(self))
        return hashlib.sha256(parts.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Table-1 rows
    # ------------------------------------------------------------------
    @classmethod
    def qiskit(cls) -> "CompilerOptions":
        """IBM Qiskit 0.5.7-style baseline."""
        return cls(variant=VARIANT_QISKIT, routing=ROUTE_SHORTEST)

    @classmethod
    def t_smt(cls, routing: str = ROUTE_RECTANGLE) -> "CompilerOptions":
        """T-SMT: minimize duration, no calibration data (RR or 1BP)."""
        return cls(variant=VARIANT_T_SMT, routing=routing)

    @classmethod
    def t_smt_star(cls, routing: str = ROUTE_RECTANGLE) -> "CompilerOptions":
        """T-SMT*: minimize duration with calibrated gate times."""
        return cls(variant=VARIANT_T_SMT_STAR, routing=routing)

    @classmethod
    def r_smt_star(cls, omega: float = 0.5) -> "CompilerOptions":
        """R-SMT*: maximize reliability (1BP routing, per the paper)."""
        return cls(variant=VARIANT_R_SMT_STAR, routing=ROUTE_ONE_BEND,
                   omega=omega)

    @classmethod
    def greedy_v(cls) -> "CompilerOptions":
        """GreedyV*: heaviest-vertex-first, best-path routing."""
        return cls(variant=VARIANT_GREEDY_V, routing=ROUTE_BEST_PATH)

    @classmethod
    def greedy_e(cls) -> "CompilerOptions":
        """GreedyE*: heaviest-edge-first, best-path routing."""
        return cls(variant=VARIANT_GREEDY_E, routing=ROUTE_BEST_PATH)
