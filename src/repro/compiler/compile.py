"""Top-level compilation entry point (Fig. 3 of the paper).

``compile_circuit`` is a thin wrapper over the pass-manager pipeline
(:mod:`repro.compiler.pipeline`): it builds the canonical pass list for
the options — mapping (per the selected variant) → scheduling and
routing → SWAP insertion → optional peephole → reliability estimation —
and returns a :class:`CompiledProgram` carrying the executable and its
predicted quality metrics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.compiler.mapping.base import MappingResult
from repro.compiler.metrics import ReliabilityEstimate
from repro.compiler.options import SOLVER_VARIANTS, CompilerOptions
from repro.compiler.scheduling.list_scheduler import Schedule
from repro.compiler.swap_insert import PhysicalProgram
from repro.hardware.calibration import Calibration
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit
from repro.ir.qasm import circuit_to_qasm


def format_bytes(n: int) -> str:
    """*n* bytes as ``123B``, ``1.5KiB``, ... ``2.0GiB``."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}B" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{n}B"  # pragma: no cover — unreachable


@dataclass(frozen=True)
class PassTiming:
    """Cost record of one pipeline stage.

    Attributes:
        name: The pass instance's name (e.g. ``mapping[r-smt*]``).
        seconds: Time spent inside the pass (0 when served from cache).
        cached: Whether the stage-prefix cache supplied the artifact.
        alloc_bytes: Net bytes the pass left allocated, when
            :mod:`tracemalloc` was tracing during the run; else 0.
        peak_bytes: Its traced-memory peak above its starting point,
            under the same condition; else 0.
    """

    name: str
    seconds: float
    cached: bool = False
    alloc_bytes: int = 0
    peak_bytes: int = 0


@dataclass
class CompiledProgram:
    """The compiler's output artifact.

    Attributes:
        logical: The input circuit.
        physical: Hardware-level program (swaps expanded) with timing.
        placement: Program qubit -> hardware qubit.
        schedule: The logical-level schedule.
        reliability: Compile-time reliability estimate.
        options: The configuration used.
        mapping: Mapper diagnostics (objective, optimality, nodes).
        compile_time: End-to-end compilation seconds (near zero when
            the program was served from a compile cache).
        calibration_label: Which calibration snapshot was used.
        pass_timings: Per-pass cost log (:class:`PassTiming`), in order.
        cache_hit: Whether this value came from a compile cache rather
            than a fresh pipeline run.
        verification: Report of the verify pass, when it was in the
            pipeline.
    """

    logical: Circuit
    physical: PhysicalProgram
    placement: Dict[int, int]
    schedule: Schedule
    reliability: ReliabilityEstimate
    options: CompilerOptions
    mapping: MappingResult
    compile_time: float
    calibration_label: str = ""
    pass_timings: Tuple[PassTiming, ...] = ()
    cache_hit: bool = False
    verification: Optional["VerificationReport"] = None  # noqa: F821

    @property
    def duration(self) -> float:
        """Scheduled execution duration in timeslots."""
        return self.schedule.makespan

    @property
    def swap_count(self) -> int:
        """One-way SWAP operations inserted for communication."""
        return self.schedule.swap_count()

    @property
    def estimated_success(self) -> float:
        """Paper-convention reliability score of the mapping."""
        return self.reliability.score

    def qasm(self) -> str:
        """OpenQASM 2.0 text of the physical program."""
        return circuit_to_qasm(self.physical.circuit)

    @cached_property
    def _fingerprint(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(self.physical.circuit.fingerprint().encode())
        for start, duration in self.physical.times:
            hasher.update(f"{start!r},{duration!r};".encode())
        for q, h in sorted(self.placement.items()):
            hasher.update(f"{q}->{h};".encode())
        hasher.update(self.calibration_label.encode())
        hasher.update(self.options.fingerprint().encode())
        return hasher.hexdigest()

    def fingerprint(self) -> str:
        """Stable content hash of the compiled artifact.

        Covers everything that determines noisy-execution behavior —
        the physical gate sequence, its timing, the placement, the
        calibration snapshot label and the options — but not wall-clock
        measurements like ``compile_time`` or provenance like
        ``cache_hit``. The trace cache keys on this, so two identical
        compilations (e.g. a compile-cache hit replayed in another
        process) share one lowered trace.
        """
        return self._fingerprint

    def timing_report(self) -> str:
        """Per-pass cost table (``repro compile --timing`` and ``repro
        profile``), slowest pass first: runs, stage-cache hits,
        seconds and, when :mod:`tracemalloc` traced the compile, the
        bytes each pass left allocated and its peak; then the solver's
        search counters."""
        timings = sorted(self.pass_timings, key=lambda t: -t.seconds)
        width = max([len("total")] + [len(t.name) for t in timings])
        header = (f"{'pass':<{width}} {'calls':>5} {'hits':>5} "
                  f"{'seconds':>9} {'alloc':>10} {'peak':>10}")
        lines = [header, "-" * len(header)]
        for t in timings:
            lines.append(
                f"{t.name:<{width}} {int(not t.cached):>5} {int(t.cached):>5} "
                f"{t.seconds:>9.4f} {format_bytes(t.alloc_bytes):>10} "
                f"{format_bytes(t.peak_bytes):>10}")
        total = sum(t.seconds for t in timings)
        lines.append(f"{'total':<{width}} {'':>5} {'':>5} {total:>9.4f}")
        stats = self.mapping.stats if self.mapping else None
        if stats:
            lines += ["", "solver: " + ", ".join(
                f"{k}={v}" for k, v in stats.items())]
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line human-readable description; it says so when a
        solver variant's search stopped before proving its placement
        optimal (heuristic variants never claim optimality)."""
        text = (f"{self.logical.name}: variant={self.options.variant} "
                f"duration={self.duration:.0f} slots "
                f"swaps={self.swap_count} "
                f"est.reliability={self.estimated_success:.3f} "
                f"compile={self.compile_time * 1000:.1f} ms")
        if (self.options.variant in SOLVER_VARIANTS
                and not self.mapping.optimal):
            text += (f" not proven optimal (stopped at "
                     f"{self.mapping.nodes} nodes)")
        return text


def compile_circuit(circuit: Circuit, calibration: Calibration,
                    options: Optional[CompilerOptions] = None,
                    tables: Optional[ReliabilityTables] = None,
                    stage_cache=None) -> CompiledProgram:
    """Compile *circuit* for the machine described by *calibration*.

    Thin wrapper building the canonical pipeline
    (:func:`repro.compiler.pipeline.build_pipeline`) from the options
    and running it once.

    Args:
        circuit: Logical program (any qubit connectivity).
        calibration: Machine snapshot to adapt to.
        options: Variant selection; defaults to R-SMT* with omega 0.5.
        tables: Precomputed routing tables (reuse across compilations of
            the same snapshot to save time).
        stage_cache: Optional :class:`~repro.runtime.cache.StageCache`
            sharing per-pass artifacts (e.g. the SMT mapping) across
            compilations that agree on a pipeline prefix.

    Returns:
        The compiled artifact, ready for the noisy executor or QASM dump.
    """
    from repro.compiler.pipeline import build_pipeline

    options = options or CompilerOptions.r_smt_star()
    return build_pipeline(options).run(circuit, calibration, options,
                                       tables=tables,
                                       stage_cache=stage_cache)
