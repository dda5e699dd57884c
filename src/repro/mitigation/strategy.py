"""The composable error-mitigation strategy protocol.

A :class:`MitigationStrategy` turns one *baseline* noisy execution of a
compiled program into a mitigated estimate of its success probability,
possibly paying for extra circuit executions (which it declares up
front via :meth:`~MitigationStrategy.extra_executions`). Strategies are
small frozen dataclasses — picklable, hashable, safe to place on
:class:`~repro.runtime.sweep.SweepCell` grids that cross a process
pool.

Two kinds of strategy compose:

* **estimators** run executions and produce the mitigated number —
  zero-noise extrapolation (:class:`~repro.mitigation.zne.ZneStrategy`)
  is the canonical one;
* **distribution transforms** rewrite a measured outcome distribution
  in place — readout-confusion inversion
  (:class:`~repro.mitigation.readout.ReadoutStrategy`) is the
  canonical one. Every strategy has a :meth:`~MitigationStrategy.transform`
  (identity by default).

:class:`ComposedStrategy` stacks them: all leading members contribute
their transforms to the execution context and the **last** member acts
as the estimator, so ``ComposedStrategy([readout, zne])`` applies
readout inversion to *every* noise-scaled distribution before the ZNE
fit — the standard "readout-corrected ZNE" recipe.

All executions run through the :class:`MitigationContext`, which
carries the cell's compiled artifact, caches and seeds; scaled-noise
and folded executions therefore share the sweep runtime's compile,
stage, and trace caches exactly like ordinary cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.compiler.compile import CompiledProgram
from repro.compiler.options import CompilerOptions
from repro.exceptions import MitigationError
from repro.hardware.calibration import Calibration
from repro.hardware.reliability import ReliabilityTables
from repro.ir.circuit import Circuit
from repro.simulator import (
    ExecutionResult,
    NoiseModel,
    ProgramTrace,
    execute,
)
from repro.simulator.executor import lowered_trace

#: A distribution transform: (ctx, {outcome: probability}) -> same shape.
DistributionTransform = Callable[["MitigationContext", Dict[str, float]],
                                 Dict[str, float]]

#: Seed stride between a cell's baseline execution and its scaled
#: executions (a large odd constant so derived seeds never collide with
#: the dense seed grids the harnesses sweep).
_SEED_STRIDE = 7919


@dataclass
class MitigatedResult:
    """Outcome of applying one strategy to one execution cell.

    Attributes:
        strategy: The strategy's :meth:`~MitigationStrategy.fingerprint`.
        raw_success: Unmitigated success probability of the baseline.
        mitigated_success: The strategy's estimate, clipped to [0, 1].
        executions: Extra circuit executions performed beyond the
            baseline (matches the strategy's declared cost).
        points: ZNE-style (noise scale, measured success) samples, when
            the strategy swept scales; empty otherwise.
    """

    strategy: str
    raw_success: float
    mitigated_success: float
    executions: int = 0
    points: Tuple[Tuple[float, float], ...] = ()

    @property
    def gain(self) -> float:
        """Mitigated minus raw success (positive = mitigation helped)."""
        return self.mitigated_success - self.raw_success


@dataclass
class MitigationContext:
    """Everything a strategy needs to run and evaluate executions.

    Built by the sweep runtime (one per mitigated cell) or by hand for
    standalone use; only ``compiled``, ``calibration`` and ``baseline``
    are strictly required — the rest defaults sensibly.

    Attributes:
        compiled: The cell's compiled artifact.
        calibration: Snapshot the cell executes under.
        baseline: The unmitigated execution (scale-1 point; strategies
            reuse it instead of re-running).
        circuit: The logical program (needed by fold-style amplifiers
            that recompile).
        options: The cell's compiler configuration (same reason).
        noise: Noise model of the baseline run (default: all-mechanisms
            :class:`~repro.simulator.NoiseModel` on *calibration*).
        trials: Shot count per execution.
        seed: The cell's master seed; per-scale seeds derive from it.
        expected: The benchmark's known answer (required — mitigation
            estimates success probability).
        engine: Executor engine for extra executions.
        trace_cache: Shared lowered-trace cache (optional).
        stage_cache: Shared pipeline stage cache (optional; lets folded
            recompilations reuse the mapping prefix).
        tables: Reliability tables for *calibration* (optional).
        transforms: Distribution transforms applied, in order, before
            success is read off a measured distribution.
    """

    compiled: CompiledProgram
    calibration: Calibration
    baseline: ExecutionResult
    circuit: Optional[Circuit] = None
    options: Optional[CompilerOptions] = None
    noise: Optional[NoiseModel] = None
    trials: int = 1024
    seed: int = 7
    expected: Optional[str] = None
    engine: str = "batched"
    trace_cache: object = None
    stage_cache: object = None
    tables: Optional[ReliabilityTables] = None
    transforms: Tuple[DistributionTransform, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.noise is None:
            self.noise = NoiseModel(self.calibration)
        if self.expected is None:
            self.expected = self.baseline.expected
        if self.expected is None:
            raise MitigationError(
                "mitigation needs the benchmark's expected outcome to "
                "estimate success probability")
        if self.circuit is None:
            self.circuit = self.compiled.logical
        if self.options is None:
            self.options = self.compiled.options

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def scale_seed(self, index: int) -> int:
        """Deterministic seed for the *index*-th extra execution."""
        return self.seed + _SEED_STRIDE * (index + 1)

    def execute(self, compiled: Optional[CompiledProgram] = None,
                noise_model: Optional[NoiseModel] = None,
                seed: Optional[int] = None) -> ExecutionResult:
        """Run one extra execution with the cell's settings."""
        return execute(compiled if compiled is not None else self.compiled,
                       self.calibration, trials=self.trials,
                       seed=self.seed if seed is None else seed,
                       expected=self.expected,
                       noise_model=noise_model
                       if noise_model is not None else self.noise,
                       engine=self.engine, trace_cache=self.trace_cache)

    def base_trace(self) -> Optional[ProgramTrace]:
        """The baseline (scale-1) lowered trace, via the trace cache.

        ``None`` when no cache is attached — callers then fall back to
        whatever :func:`~repro.simulator.execute` does on its own.
        """
        if self.trace_cache is None:
            return None
        return lowered_trace(self.compiled, self.calibration, self.noise,
                             self.trace_cache, dense=True)

    # ------------------------------------------------------------------
    # Observable evaluation
    # ------------------------------------------------------------------
    def with_transforms(self, *extra: DistributionTransform
                        ) -> "MitigationContext":
        """A copy of this context with more distribution transforms."""
        return replace(self, transforms=self.transforms + tuple(extra))

    def distribution(self, result: ExecutionResult) -> Dict[str, float]:
        """Measured distribution of *result* after every transform."""
        dist = {outcome: count / result.trials
                for outcome, count in result.counts.items()}
        for transform in self.transforms:
            dist = transform(self, dist)
        return dist

    def success_of(self, result: ExecutionResult) -> float:
        """(Transformed) probability of the expected outcome."""
        return self.distribution(result).get(self.expected, 0.0)

    def raw_success(self) -> float:
        """Baseline success with *no* transforms applied."""
        return self.baseline.counts.get(self.expected, 0) \
            / self.baseline.trials


class MitigationStrategy:
    """Base class for mitigation strategies.

    Subclasses set :attr:`name`, implement :meth:`mitigate` (the
    estimator role) and/or override :meth:`transform` (the
    distribution-transform role), declare their cost via
    :meth:`extra_executions`, and provide a stable
    :meth:`fingerprint` for cell keys and reports. Strategies must be
    cheap to pickle: sweep grids ship them to pool workers.
    """

    name: str = ""

    def fingerprint(self) -> str:
        """Stable content identity of this strategy's configuration."""
        return self.name

    def extra_executions(self) -> int:
        """Circuit executions this strategy performs beyond the baseline."""
        return 0

    def transform(self, ctx: MitigationContext,
                  distribution: Dict[str, float]) -> Dict[str, float]:
        """Rewrite a measured distribution (identity by default)."""
        return distribution

    def mitigate(self, ctx: MitigationContext) -> MitigatedResult:
        """Produce the mitigated estimate for one cell."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.fingerprint()!r})"


class ComposedStrategy(MitigationStrategy):
    """Stack strategies: leading members transform, the last estimates.

    ``ComposedStrategy([readout, zne])`` corrects every scaled
    distribution for readout confusion, then extrapolates — each
    member keeps its own cost declaration and the composite's is their
    sum.

    Args:
        strategies: Two or more members, estimator last. Leading
            members must actually override
            :meth:`MitigationStrategy.transform` — an estimator-only
            strategy (e.g. ZNE) in a leading slot would contribute
            nothing but still be advertised in the composite's name
            and cost, so it is rejected.
    """

    def __init__(self, strategies: Sequence[MitigationStrategy]) -> None:
        if len(strategies) < 2:
            raise MitigationError("composition needs >= 2 strategies")
        for member in strategies[:-1]:
            if type(member).transform is MitigationStrategy.transform:
                raise MitigationError(
                    f"{member.name!r} defines no distribution transform "
                    f"and only the last composed strategy estimates; "
                    f"put it last (e.g. readout+zne, not zne+readout)")
        self.strategies: Tuple[MitigationStrategy, ...] = tuple(strategies)
        self.name = "+".join(s.name for s in self.strategies)

    def fingerprint(self) -> str:
        return "+".join(s.fingerprint() for s in self.strategies)

    def extra_executions(self) -> int:
        return sum(s.extra_executions() for s in self.strategies)

    def transform(self, ctx: MitigationContext,
                  distribution: Dict[str, float]) -> Dict[str, float]:
        for strategy in self.strategies:
            distribution = strategy.transform(ctx, distribution)
        return distribution

    def mitigate(self, ctx: MitigationContext) -> MitigatedResult:
        leading = self.strategies[:-1]
        estimator = self.strategies[-1]
        enriched = ctx.with_transforms(*(s.transform for s in leading))
        result = estimator.mitigate(enriched)
        return replace(result, strategy=self.fingerprint(),
                       raw_success=ctx.raw_success())


def strategy_from_spec(spec: str,
                       scales: Sequence[float] = (),
                       fit: str = "linear",
                       amplifier: str = "trace") -> MitigationStrategy:
    """Build a strategy from a CLI-style ``+``-separated spec.

    ``"zne"``, ``"readout"``, and stacks like ``"readout+zne"`` (the
    composition order is the spec order: leading members transform,
    the last estimates).
    """
    from repro.mitigation.readout import ReadoutStrategy
    from repro.mitigation.zne import DEFAULT_SCALES, ZneStrategy

    members = []
    for part in spec.split("+"):
        part = part.strip()
        if part == "zne":
            members.append(ZneStrategy(
                scales=tuple(scales) if scales else DEFAULT_SCALES,
                fit=fit, amplifier=amplifier))
        elif part == "readout":
            members.append(ReadoutStrategy())
        else:
            raise MitigationError(
                f"unknown mitigation strategy {part!r} "
                f"(known: zne, readout, and '+' stacks of them)")
    if len(members) == 1:
        return members[0]
    return ComposedStrategy(members)
