"""Composable pass-manager compiler pipeline.

The paper's Fig. 3 toolflow (mapping → scheduling → SWAP insertion →
peephole → reliability estimation) is expressed here as an ordered list
of :class:`Pass` objects run by a :class:`PassManager` over a shared
:class:`PipelineContext`. Each pass declares

* a ``name`` identifying it in timing breakdowns and the stage cache,
* the :class:`~repro.compiler.options.CompilerOptions` fields it reads
  (its **fingerprint contribution** — two option values that agree on
  those fields drive the pass identically), and
* a pure ``run(ctx)`` producing one context artifact (``produces``).

Because every pass is a deterministic function of (circuit,
calibration, the passes before it, its declared option fields), the
manager can content-address each stage's output by a running *prefix
key*: ``key_i = H(key_{i-1} | fingerprint(pass_i))`` seeded with the
circuit fingerprint and calibration content id. A sweep that varies
only post-mapping knobs (routing policy, peephole, coherence handling)
therefore shares the expensive SMT/greedy mapping artifact across
cells through a :class:`~repro.runtime.cache.StageCache` — see
:meth:`PassManager.run`'s ``stage_cache`` hook.

:func:`build_pipeline` assembles the canonical Fig.-3 pipeline for a
:class:`CompilerOptions` value;
:func:`~repro.compiler.compile.compile_circuit` is a thin wrapper over
it. The Table-1 variants resolve through the fixed :data:`MAPPERS`
table (variant -> mapper factory and the option fields its placement
reads). Ablations edit pipelines explicitly, as a list of pass
instances (e.g. :func:`repro.mitigation.folded_pipeline`), rather than
through option flags; ``repro passes`` lists the passes and variants.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.compile import CompiledProgram, PassTiming
from repro.compiler.mapping.base import Mapper, MappingResult
from repro.compiler.mapping.greedy import GreedyEdgeMapper, GreedyVertexMapper
from repro.compiler.mapping.smt import ReliabilitySmtMapper, TimeSmtMapper
from repro.compiler.mapping.trivial import TrivialMapper
from repro.compiler.metrics import ReliabilityEstimate, estimate_reliability
from repro.compiler.options import (
    VARIANT_GREEDY_E,
    VARIANT_GREEDY_V,
    VARIANT_QISKIT,
    VARIANT_R_SMT_STAR,
    VARIANT_T_SMT,
    VARIANT_T_SMT_STAR,
    CompilerOptions,
)
from repro.compiler.scheduling.list_scheduler import Schedule, schedule_circuit
from repro.compiler.swap_insert import (
    PhysicalProgram,
    apply_peephole,
    insert_swaps,
)
from repro.compiler.verify import VerificationReport, verify_compiled
from repro.exceptions import CompilationError
from repro.hardware.calibration import Calibration
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit


@dataclass
class PipelineContext:
    """Shared state threaded through a pipeline run.

    The first four fields are the run's immutable inputs; the artifact
    fields start ``None`` and are filled by the pass that ``produces``
    them. Passes read earlier artifacts via :meth:`artifact` (which
    raises on misordered pipelines instead of surfacing ``None``).

    Attributes:
        circuit: The logical input program.
        calibration: Machine snapshot compiled against.
        tables: Routing/reliability tables for that snapshot.
        options: The configuration driving the run.
        mapping: Initial-placement artifact.
        schedule: List-scheduling artifact.
        physical: Hardware-level program (SWAPs expanded, timed).
        reliability: Compile-time reliability estimate.
        verification: Report of the optional verify pass.
        timings: Per-pass cost log (:class:`PassTiming`), in pass order.
    """

    circuit: Circuit
    calibration: Calibration
    tables: ReliabilityTables
    options: CompilerOptions
    mapping: Optional[MappingResult] = None
    schedule: Optional[Schedule] = None
    physical: Optional[PhysicalProgram] = None
    reliability: Optional[ReliabilityEstimate] = None
    verification: Optional[VerificationReport] = None
    timings: List[PassTiming] = field(default_factory=list)

    def artifact(self, name: str):
        """A previously produced artifact, or raise if absent."""
        value = getattr(self, name)
        if value is None:
            raise CompilationError(
                f"pipeline artifact {name!r} has not been produced yet "
                f"(pass ordering error)")
        return value


class Pass:
    """One pipeline stage.

    Subclasses set :attr:`name` (stable identifier), :attr:`produces`
    (the :class:`PipelineContext` artifact field they fill) and
    :attr:`option_fields` (the :class:`CompilerOptions` fields their
    behavior depends on), and implement :meth:`run` as a pure function
    of the context's inputs and earlier artifacts.
    """

    name: str = ""
    produces: str = ""
    option_fields: Tuple[str, ...] = ()

    def config(self) -> str:
        """Constructor state that shapes :meth:`run`, for fingerprints.

        Passes configured at construction time (rather than through
        ``CompilerOptions``) must surface that state here so that
        differently-configured instances never alias in the stage
        cache.
        """
        return ""

    def fingerprint(self, options: CompilerOptions) -> str:
        """Stable hash of this pass's identity, config and option inputs.

        Two pipeline runs whose passes share fingerprints stage-by-stage
        compute identical artifacts, which is what the stage-prefix
        cache keys on. (The chain over-approximates a pass's true
        inputs — e.g. the reliability estimate ignores the physical
        program yet is keyed after the peephole stage — trading some
        sharing for soundness-by-construction.)
        """
        parts = [self.name, self.config()]
        parts.extend(f"{name}={getattr(options, name)!r}"
                     for name in self.option_fields)
        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def run(self, ctx: PipelineContext):
        """Compute and return this pass's artifact."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Mappers (variant -> factory, option fields)
# ----------------------------------------------------------------------
#: Variant -> (mapper factory, the option fields its placement decision
#: reads), in :data:`ALL_VARIANTS` order. The fields are the mapping
#: stage's fingerprint, and keeping them tight is what lets
#: post-mapping sweeps share the mapping stage: routing and peephole
#: are absent everywhere (no mapper reads them), and omega only appears
#: for R-SMT*. Over-declaring only costs cache sharing; under-declaring
#: risks stale stage-cache artifacts.
MAPPERS: Dict[str, Tuple[Callable[[CompilerOptions], Mapper],
                         Tuple[str, ...]]] = {
    VARIANT_QISKIT: (lambda options: TrivialMapper(), ()),
    VARIANT_T_SMT: (TimeSmtMapper, ("variant", "uniform_cnot_slots",
                                    "solver_time_limit")),
    VARIANT_T_SMT_STAR: (TimeSmtMapper, ("variant", "uniform_cnot_slots",
                                         "solver_time_limit")),
    VARIANT_R_SMT_STAR: (ReliabilitySmtMapper, ("omega", "solver_time_limit")),
    VARIANT_GREEDY_V: (GreedyVertexMapper, ()),
    VARIANT_GREEDY_E: (GreedyEdgeMapper, ()),
}


def mapper_for(options: CompilerOptions) -> Mapper:
    """Instantiate the mapping algorithm for ``options.variant``."""
    return MAPPERS[options.variant][0](options)


# ----------------------------------------------------------------------
# The Fig.-3 passes
# ----------------------------------------------------------------------
class MappingPass(Pass):
    """Initial placement via the variant's mapper.

    ``name`` is ``mapping`` on the class (as ``repro passes`` lists
    it) and carries the variant on each instance (``mapping[r-smt*]``).
    """

    name = "mapping"
    produces = "mapping"

    def __init__(self, variant: str) -> None:
        if variant not in MAPPERS:
            raise CompilationError(
                f"no mapper for variant {variant!r} "
                f"(known: {', '.join(MAPPERS)})")
        self.variant = variant
        self.name = f"mapping[{variant}]"
        self.option_fields = MAPPERS[variant][1]

    def run(self, ctx: PipelineContext) -> MappingResult:
        mapper = mapper_for(ctx.options.with_(variant=self.variant)
                            if ctx.options.variant != self.variant
                            else ctx.options)
        return mapper.run(ctx.circuit, ctx.calibration, ctx.tables)


class SchedulingPass(Pass):
    """List scheduling + routing under the options' policy."""

    name = "schedule"
    produces = "schedule"
    # variant selects the router preference and the duration model.
    option_fields = ("variant", "routing", "uniform_cnot_slots",
                     "coherence_slots", "enforce_coherence")

    def run(self, ctx: PipelineContext) -> Schedule:
        mapping = ctx.artifact("mapping")
        return schedule_circuit(ctx.circuit, mapping.placement,
                                ctx.calibration, ctx.tables, ctx.options)


class SwapInsertPass(Pass):
    """Lower the scheduled logical circuit to timed hardware gates."""

    name = "swap-insert"
    produces = "physical"

    def run(self, ctx: PipelineContext) -> PhysicalProgram:
        return insert_swaps(ctx.circuit, ctx.artifact("schedule"),
                            ctx.artifact("mapping").placement,
                            ctx.calibration)


class PeepholePass(Pass):
    """Adjacent-inverse cancellation on the physical program.

    Optional: its presence in the pipeline *is* the knob (the canonical
    pipeline includes it iff ``options.peephole``), so it reads no
    option fields itself.
    """

    name = "peephole"
    produces = "physical"

    def run(self, ctx: PipelineContext) -> PhysicalProgram:
        return apply_peephole(ctx.artifact("physical"), ctx.calibration)


class ReliabilityPass(Pass):
    """Compile-time reliability estimate of the scheduled mapping."""

    name = "reliability"
    produces = "reliability"

    def run(self, ctx: PipelineContext) -> ReliabilityEstimate:
        return estimate_reliability(ctx.circuit, ctx.artifact("schedule"),
                                    ctx.artifact("mapping").placement,
                                    ctx.calibration)


class VerifyPass(Pass):
    """Structural + semantic verification of the compiled artifact.

    Args:
        strict: Raise :class:`CompilationError` on any failed check
            (default) instead of only recording the report.
        semantic: Include the statevector equivalence check.
    """

    name = "verify"
    produces = "verification"

    def __init__(self, strict: bool = True, semantic: bool = True) -> None:
        self.strict = strict
        self.semantic = semantic

    def config(self) -> str:
        return f"strict={self.strict},semantic={self.semantic}"

    def run(self, ctx: PipelineContext) -> VerificationReport:
        provisional = _assemble(ctx, compile_time=0.0)
        report = verify_compiled(provisional, ctx.calibration,
                                 semantic=self.semantic)
        if self.strict:
            report.raise_if_failed()
        return report


def build_pipeline(options: CompilerOptions,
                   verify: bool = False) -> "PassManager":
    """The canonical Fig.-3 pipeline for one options value.

    mapping → schedule → swap-insert → [peephole] → reliability →
    [verify], with peephole included iff ``options.peephole`` and the
    verify pass on request.
    """
    passes: List[Pass] = [MappingPass(options.variant), SchedulingPass(),
                          SwapInsertPass()]
    if options.peephole:
        passes.append(PeepholePass())
    passes.append(ReliabilityPass())
    if verify:
        passes.append(VerifyPass())
    return PassManager(passes)


# ----------------------------------------------------------------------
# Stage-prefix keys
# ----------------------------------------------------------------------
def pipeline_seed_key(circuit: Circuit, calibration: Calibration) -> str:
    """Stage-key chain seed: the pipeline's raw inputs."""
    hasher = hashlib.sha256()
    hasher.update(circuit.fingerprint().encode())
    hasher.update(calibration.content_id().encode())
    return hasher.hexdigest()


def chain_key(prev_key: str, pass_fingerprint: str) -> str:
    """Extend a stage-prefix key by one pass."""
    return hashlib.sha256(
        f"{prev_key}|{pass_fingerprint}".encode()).hexdigest()


def mapping_stage_fingerprint(options: CompilerOptions) -> str:
    """Fingerprint of the canonical pipeline's mapping stage.

    Cells of a sweep that share (circuit, calibration, this value)
    share one mapping artifact through the stage cache; the sweep
    scheduler groups by it so the reuse also holds across a process
    pool (see :meth:`repro.runtime.SweepCell.prefix_key`).
    """
    return MappingPass(options.variant).fingerprint(options)


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class PassManager:
    """Runs an ordered pass list over a fresh context per compile.

    Args:
        passes: The stages, in execution order. Each must declare a
            non-empty ``name`` and ``produces``.
    """

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: Tuple[Pass, ...] = tuple(passes)
        for p in self.passes:
            if not p.name or not p.produces:
                raise CompilationError(
                    f"pass {p!r} must declare a name and an artifact")

    def run(self, circuit: Circuit, calibration: Calibration,
            options: CompilerOptions,
            tables: Optional[ReliabilityTables] = None,
            stage_cache=None) -> CompiledProgram:
        """Execute the pipeline and assemble the compiled artifact.

        Args:
            circuit: Logical program (any qubit connectivity).
            calibration: Machine snapshot to adapt to.
            options: The configuration driving every pass. Required —
                a silent default could disagree with the variant this
                pipeline's passes were built for and produce a
                mixed-configuration compile (use
                :func:`repro.compiler.compile_circuit` for a defaulted
                entry point).
            tables: Precomputed routing tables (reuse across
                compilations of the same snapshot to save time).
            stage_cache: Optional
                :class:`~repro.runtime.cache.StageCache`-like object
                (``get(key)``/``put(key, artifact)``). Stage outputs
                are looked up by prefix key before running and stored
                after; cached artifacts are shared objects, so their
                wall-clock diagnostics (e.g. ``MappingResult.solve_time``)
                describe the original computation.

        Returns:
            The compiled artifact; its ``pass_timings`` records each
            stage's seconds, whether it was served from the cache and,
            when :mod:`tracemalloc` is tracing, its allocation deltas.
        """
        start = time.perf_counter()
        tracing = tracemalloc.is_tracing()
        if tables is None:
            tables = ReliabilityTables(calibration)
        ctx = PipelineContext(circuit=circuit, calibration=calibration,
                              tables=tables, options=options)
        key = pipeline_seed_key(circuit, calibration)
        for p in self.passes:
            key = chain_key(key, p.fingerprint(options))
            artifact = stage_cache.get(key) if stage_cache is not None \
                else None
            if artifact is None:
                if tracing:
                    tracemalloc.reset_peak()
                    before, _ = tracemalloc.get_traced_memory()
                tick = time.perf_counter()
                artifact = p.run(ctx)
                seconds = time.perf_counter() - tick
                alloc = peak = 0
                if tracing:
                    after, high = tracemalloc.get_traced_memory()
                    alloc, peak = max(0, after - before), max(0, high - before)
                if artifact is None:
                    raise CompilationError(
                        f"pass {p.name!r} produced no artifact")
                if stage_cache is not None:
                    stage_cache.put(key, artifact)
                timing = PassTiming(name=p.name, seconds=seconds,
                                    alloc_bytes=alloc, peak_bytes=peak)
            else:
                timing = PassTiming(name=p.name, seconds=0.0, cached=True)
            setattr(ctx, p.produces, artifact)
            ctx.timings.append(timing)
        return _assemble(ctx, compile_time=time.perf_counter() - start)


def _assemble(ctx: PipelineContext, compile_time: float) -> CompiledProgram:
    """Build a :class:`CompiledProgram` from a completed context."""
    mapping = ctx.artifact("mapping")
    return CompiledProgram(
        logical=ctx.circuit,
        physical=ctx.artifact("physical"),
        placement=dict(mapping.placement),
        schedule=ctx.artifact("schedule"),
        reliability=ctx.artifact("reliability"),
        options=ctx.options,
        mapping=mapping,
        compile_time=compile_time,
        calibration_label=ctx.calibration.label,
        pass_timings=tuple(ctx.timings),
        verification=ctx.verification,
    )
