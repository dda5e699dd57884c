"""Zero-noise extrapolation (ZNE).

ZNE estimates the zero-noise value of an observable — here, a
benchmark's success probability — by *deliberately amplifying* the
device noise to several scale factors ``lambda >= 1``, measuring the
observable at each, and extrapolating the curve back to ``lambda = 0``
(Temme et al. 2017; the mitiq library popularized the software-level
recipe this module follows). Two noise amplifiers implement the same
scaling contract:

* **Trace-level scaling** (:class:`ScaledNoiseModel`, the default and
  the cheap path): every stochastic error probability the noise model
  reports — gate depolarizing channels, idle Pauli-twirl windows,
  optionally readout flips — is multiplied by ``lambda`` (clipped to
  1). The physical program is untouched, so the one compiled artifact
  and its lowered :class:`~repro.simulator.trace.ProgramTrace` are
  shared across every scale: a scaled trace is a
  :meth:`~repro.simulator.trace.ProgramTrace.rescaled` copy of the
  base trace's flat ``site_prob`` array, no recompilation and no
  re-lowering. ``ScaledNoiseModel`` provides a ``trace_key()`` so the
  scaled traces are first-class trace-cache citizens.
* **Unitary gate folding** (:class:`FoldingPass`, the hardware-faithful
  path): each unitary gate ``g`` in the physical program becomes
  ``g (g^dagger g)^k`` — an identity-preserving expansion that runs
  ``lambda``-times as many gates through the *unmodified* noise model,
  exactly what one would do on a real device that offers no noise
  knob. The pass slots into the standard compiler pipeline after the
  physical-program stages (it is registered via
  :func:`repro.compiler.register_pass` under the name ``"fold"``
  without touching ``compiler/pipeline.py``), so folded compilations
  reuse the expensive mapping prefix through the stage cache.

:class:`ZneStrategy` drives either amplifier over a scale schedule and
extrapolates with a linear, Richardson (polynomial through all points),
or exponential fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.compiler.options import CompilerOptions
from repro.compiler.pipeline import (
    Pass,
    PassManager,
    build_pipeline,
    register_pass,
)
from repro.compiler.swap_insert import PhysicalProgram, _asap_times
from repro.exceptions import MitigationError
from repro.hardware.calibration import Calibration
from repro.ir.circuit import Circuit
from repro.ir.gates import inverse_gate
from repro.mitigation.strategy import (
    MitigatedResult,
    MitigationContext,
    MitigationStrategy,
)
from repro.simulator.batch import prepare_for_cache
from repro.simulator.noise import IdleRates, NoiseModel, noise_content_key

#: Supported extrapolation fits.
ZNE_FITS = ("linear", "richardson", "exp")

#: Supported noise amplifiers.
ZNE_AMPLIFIERS = ("trace", "fold")

#: Default noise-scale schedule. Non-integer scales are exact under the
#: trace amplifier (probabilities scale continuously) and approximated
#: by partial folding under the fold amplifier.
DEFAULT_SCALES = (1.0, 1.5, 2.0)


# ----------------------------------------------------------------------
# Trace-level noise amplification
# ----------------------------------------------------------------------
class ScaledNoiseModel(NoiseModel):
    """A noise model whose error probabilities are *base*'s times *scale*.

    Only the probability accessors are overridden, and every engine
    lowers its trace from them, so scaled traces lower directly — and
    because the scaling is a uniform multiplication of each error
    site's firing probability, a lowered scaled trace equals
    ``base_trace.rescaled(scale)`` array-for-array. ``trace_key()``
    makes the scaled lowerings cacheable per scale.

    Args:
        base: The model whose probabilities are amplified.
        scale: Finite non-negative multiplier (``1.0`` is the identity).
        scale_readout: Also amplify readout flip probabilities (off by
            default: folding on real hardware amplifies circuit noise
            only, and readout errors have their own mitigation).
    """

    def __init__(self, base: NoiseModel, scale: float,
                 scale_readout: bool = False) -> None:
        if not (math.isfinite(scale) and scale >= 0.0):
            raise MitigationError(
                f"noise scale must be finite and non-negative, got {scale}")
        super().__init__(base.calibration, gate_errors=base.gate_errors,
                         decoherence=base.decoherence,
                         readout_errors=base.readout_errors,
                         crosstalk_factor=base.crosstalk_factor)
        self.base = base
        self.scale = scale
        self.scale_readout = scale_readout

    def gate_error_probability(self, gate, concurrent_neighbors: int = 0
                               ) -> float:
        p = self.base.gate_error_probability(
            gate, concurrent_neighbors=concurrent_neighbors)
        return min(p * self.scale, 1.0)

    def idle_rates(self, qubit: int, idle_slots: float) -> IdleRates:
        rates = self.base.idle_rates(qubit, idle_slots)
        factor = self.scale
        total = rates.total * factor
        if total > 1.0:  # renormalize components, keep the conditional
            factor *= 1.0 / total
        return IdleRates(p_x=rates.p_x * factor, p_y=rates.p_y * factor,
                         p_z=rates.p_z * factor)

    def readout_flip_probability(self, qubit: int, bit: int = 0) -> float:
        p = self.base.readout_flip_probability(qubit, bit)
        if not self.scale_readout:
            return p
        return min(p * self.scale, 1.0)

    def trace_key(self):
        """Content key extending the base model's (``None`` = uncacheable)."""
        base_key = noise_content_key(self.base)
        if base_key is None:
            return None
        return ("zne-scaled", self.scale, self.scale_readout, base_key)


# ----------------------------------------------------------------------
# Unitary gate folding
# ----------------------------------------------------------------------
def fold_circuit(circuit: Circuit, scale: float) -> Circuit:
    """Local unitary folding: each gate ``g`` becomes ``g (g^dagger g)^k``.

    The fold counts are chosen so the unitary gate count grows by
    ``scale`` as closely as integer folds allow: every gate receives
    ``floor((scale - 1) / 2)`` folds and the first few gates (in
    program order — deterministic) receive one extra to absorb the
    fractional remainder. Measurements and barriers pass through
    untouched. ``scale = 1`` reproduces the input gate sequence exactly
    (fingerprint-identical).

    Args:
        circuit: Program to fold (logical or physical — folding maps
            each gate onto its own qubits, so coupling constraints are
            preserved).
        scale: Target noise scale, finite and ``>= 1``.

    Raises:
        MitigationError: If ``scale < 1`` or is not finite.
    """
    if not (math.isfinite(scale) and scale >= 1.0):
        raise MitigationError(
            f"fold scale must be finite and >= 1 (got {scale}); noise "
            f"can only be amplified by inserting gates")
    unitary_count = sum(1 for g in circuit.gates if g.is_unitary)
    base_folds = int((scale - 1.0) / 2.0)
    remainder = (scale - 1.0) / 2.0 - base_folds
    extra = int(round(remainder * unitary_count))
    out = Circuit(circuit.n_qubits, circuit.n_cbits,
                  name=f"{circuit.name}@fold{scale:g}")
    seen = 0
    for gate in circuit.gates:
        out.append(gate)
        if not gate.is_unitary:
            continue
        folds = base_folds + (1 if seen < extra else 0)
        seen += 1
        for _ in range(folds):
            out.append(inverse_gate(gate))
            out.append(gate)
    return out


def achieved_scale(original: Circuit, folded: Circuit) -> float:
    """The gate-count ratio a folded circuit actually realizes."""
    base = sum(1 for g in original.gates if g.is_unitary)
    if base == 0:
        return 1.0
    return sum(1 for g in folded.gates if g.is_unitary) / base


def fold_physical(program: PhysicalProgram, scale: float,
                  calibration: Calibration) -> PhysicalProgram:
    """Fold a physical program and re-derive its ASAP gate times."""
    folded = fold_circuit(program.circuit, scale)
    return PhysicalProgram(circuit=folded,
                           times=_asap_times(folded, calibration),
                           swap_cnots=program.swap_cnots)


class FoldingPass(Pass):
    """Pipeline pass amplifying noise by unitary folding.

    A third-party pass: it lives outside ``repro.compiler`` and joins
    pipelines either explicitly (:func:`folded_pipeline`) or through
    the pass registry (``register_pass("fold", ...)``, done at module
    import). The fold scale is constructor state, surfaced via
    :meth:`config` so differently-scaled instances never alias in the
    stage cache.
    """

    name = "fold"
    produces = "physical"

    def __init__(self, scale: float = 3.0) -> None:
        if not (math.isfinite(scale) and scale >= 1.0):
            raise MitigationError(
                f"fold scale must be finite and >= 1, got {scale}")
        self.scale = scale

    def config(self) -> str:
        return f"scale={self.scale!r}"

    def run(self, ctx) -> PhysicalProgram:
        return fold_physical(ctx.artifact("physical"), self.scale,
                             ctx.calibration)


def folded_pipeline(options: CompilerOptions, scale: float) -> PassManager:
    """The canonical pipeline with a :class:`FoldingPass` appended.

    The fold runs after the last physical-program stage (SWAP
    insertion, or peephole when enabled) and before reliability
    estimation, so a stage cache shared with unfolded compilations
    reuses the whole mapping/scheduling/lowering prefix and only the
    fold onward is recomputed per scale.
    """
    passes: List[Pass] = list(build_pipeline(options).passes)
    physical_stages = [i for i, p in enumerate(passes)
                       if p.produces == "physical"]
    passes.insert(physical_stages[-1] + 1, FoldingPass(scale))
    return PassManager(passes)


# Prove the registry extension point: the folding pass is available to
# `repro passes` and explicit pipeline edits without any change to
# repro/compiler/pipeline.py.
register_pass("fold", lambda options: FoldingPass())


# ----------------------------------------------------------------------
# Extrapolation fits
# ----------------------------------------------------------------------
def linear_extrapolate(scales: Sequence[float],
                       values: Sequence[float]) -> float:
    """Least-squares line through (scale, value), evaluated at 0."""
    slope, intercept = np.polyfit(np.asarray(scales, dtype=np.float64),
                                  np.asarray(values, dtype=np.float64), 1)
    return float(intercept)


def richardson_extrapolate(scales: Sequence[float],
                           values: Sequence[float]) -> float:
    """Polynomial through *all* points, evaluated at 0.

    Classic Richardson extrapolation: the unique degree-(n-1)
    interpolant through n points, written in Lagrange form at x = 0 so
    no polynomial coefficients are ever materialized:
    ``sum_i y_i * prod_{j != i} x_j / (x_j - x_i)``. Exact for any
    observable that is polynomial of degree < n in the noise scale.
    """
    total = 0.0
    for i, (x_i, y_i) in enumerate(zip(scales, values)):
        weight = 1.0
        for j, x_j in enumerate(scales):
            if j == i:
                continue
            if x_j == x_i:
                raise MitigationError(
                    f"duplicate noise scale {x_i} breaks Richardson "
                    f"extrapolation")
            weight *= x_j / (x_j - x_i)
        total += y_i * weight
    return total


def exp_extrapolate(scales: Sequence[float],
                    values: Sequence[float]) -> float:
    """Fit ``y = a * exp(-b * x)`` by a log-linear least squares.

    Matches the physically expected exponential decay of success with
    circuit noise. Falls back to the linear fit when any value is
    non-positive (the log is undefined there).
    """
    if any(v <= 0.0 for v in values):
        return linear_extrapolate(scales, values)
    slope, intercept = np.polyfit(
        np.asarray(scales, dtype=np.float64),
        np.log(np.asarray(values, dtype=np.float64)), 1)
    return float(math.exp(intercept))


def extrapolate(scales: Sequence[float], values: Sequence[float],
                fit: str) -> float:
    """Zero-noise estimate of (scales, values) under the named fit."""
    if len(scales) != len(values) or len(scales) < 2:
        raise MitigationError("extrapolation needs >= 2 (scale, value) "
                              "points")
    if fit == "linear":
        return linear_extrapolate(scales, values)
    if fit == "richardson":
        return richardson_extrapolate(scales, values)
    if fit == "exp":
        return exp_extrapolate(scales, values)
    raise MitigationError(f"unknown ZNE fit {fit!r} "
                          f"(known: {', '.join(ZNE_FITS)})")


# ----------------------------------------------------------------------
# The strategy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZneStrategy(MitigationStrategy):
    """Zero-noise extrapolation over a scale schedule.

    Attributes:
        scales: Noise scale factors to measure at. ``1.0`` reuses the
            cell's baseline execution rather than re-running it.
        fit: ``"linear"`` (robust default), ``"richardson"`` (exact for
            polynomial decay, higher variance), or ``"exp"``.
        amplifier: ``"trace"`` (scale error-site probabilities on the
            shared lowered trace — no recompilation) or ``"fold"``
            (unitary gate folding through a re-run pipeline).
        scale_readout: Amplify readout errors too (trace amplifier
            only; folding cannot amplify readout noise).
    """

    scales: Tuple[float, ...] = DEFAULT_SCALES
    fit: str = "linear"
    amplifier: str = "trace"
    scale_readout: bool = False

    name = "zne"

    def __post_init__(self) -> None:
        if len(self.scales) < 2:
            raise MitigationError("ZNE needs at least two noise scales")
        if len(set(self.scales)) != len(self.scales):
            raise MitigationError("ZNE scales must be distinct")
        if not all(math.isfinite(s) and s >= 1.0 for s in self.scales):
            raise MitigationError("ZNE scales must be finite and >= 1 "
                                  "(noise can only be amplified)")
        if self.fit not in ZNE_FITS:
            raise MitigationError(f"unknown ZNE fit {self.fit!r}")
        if self.amplifier not in ZNE_AMPLIFIERS:
            raise MitigationError(
                f"unknown ZNE amplifier {self.amplifier!r} "
                f"(known: {', '.join(ZNE_AMPLIFIERS)})")
        if self.scale_readout and self.amplifier == "fold":
            raise MitigationError("gate folding cannot amplify readout "
                                  "noise; use the trace amplifier")

    def fingerprint(self) -> str:
        return (f"zne(scales={','.join(f'{s:g}' for s in self.scales)};"
                f"fit={self.fit};amplifier={self.amplifier};"
                f"readout={self.scale_readout})")

    def extra_executions(self) -> int:
        """One execution per scale, minus the reused baseline."""
        return len([s for s in self.scales if s != 1.0])

    def mitigate(self, ctx: MitigationContext) -> MitigatedResult:
        if self.scale_readout and ctx.transforms:
            raise MitigationError(
                "scale_readout cannot be combined with distribution "
                "transforms (e.g. a readout+zne stack): the transforms "
                "are built for the unscaled readout channel, so "
                "applying them to readout-amplified executions would "
                "leave a scale-dependent residual that biases the "
                "extrapolation")
        points: List[Tuple[float, float]] = []
        executions = 0
        for index, scale in enumerate(self.scales):
            if scale == 1.0:
                result = ctx.baseline
            else:
                result = self._execute_scaled(ctx, scale, index)
                executions += 1
            points.append((scale, ctx.success_of(result)))
        estimate = extrapolate([p[0] for p in points],
                               [p[1] for p in points], self.fit)
        return MitigatedResult(
            strategy=self.fingerprint(),
            raw_success=ctx.raw_success(),
            mitigated_success=min(max(estimate, 0.0), 1.0),
            executions=executions,
            points=tuple(points))

    # ------------------------------------------------------------------
    def _execute_scaled(self, ctx: MitigationContext, scale: float,
                        index: int):
        if self.amplifier == "trace":
            scaled = ScaledNoiseModel(ctx.noise, scale,
                                      scale_readout=self.scale_readout)
            self._prime_trace(ctx, scaled)
            return ctx.execute(noise_model=scaled,
                               seed=ctx.scale_seed(index))
        program = folded_pipeline(ctx.options, scale).run(
            ctx.circuit, ctx.calibration, ctx.options, tables=ctx.tables,
            stage_cache=ctx.stage_cache)
        return ctx.execute(compiled=program, seed=ctx.scale_seed(index))

    def _prime_trace(self, ctx: MitigationContext,
                     scaled: ScaledNoiseModel) -> None:
        """Seed the trace cache with a cheap rescale of the base trace.

        Without this, the first execution per scale would re-lower the
        program from scratch (statevector ideal-distribution pass
        included); with it, the scaled trace is a numpy-array copy of
        the base trace, with its own exact outcome law computed before
        the ``put`` so a persistent tier stores it. Later executions at
        the same scale hit the cache directly.
        """
        cache = ctx.trace_cache
        if cache is None or ctx.engine != "batched":
            return
        if scaled.trace_key() is None:
            return  # uncacheable base model: nothing to prime
        if cache.get(ctx.compiled, scaled, ctx.calibration) is not None:
            return
        base = ctx.base_trace()
        if base is None:
            return
        cache.put(ctx.compiled, scaled, ctx.calibration,
                  prepare_for_cache(base.rescaled(
                      scaled.scale, scale_readout=scaled.scale_readout)))
