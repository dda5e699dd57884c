"""Error-mitigation subsystem: buy back reliability in post-processing.

The paper's compiler raises success probability by *mapping around*
noise; this layer raises it further by *correcting for* noise after
compilation, mitiq-style:

* :mod:`repro.mitigation.zne` — zero-noise extrapolation, amplifying
  noise either on the lowered execution trace (cheap: scaled copies of
  the flat error-site probabilities, no recompilation) or by unitary
  gate folding through a :class:`FoldingPass` that
  :func:`folded_pipeline` adds to the compiler pipeline;
* :mod:`repro.mitigation.readout` — per-qubit confusion matrices from
  calibration readout fidelities, inverted (with regularization) on
  the measured distribution;
* :mod:`repro.mitigation.strategy` — the composable
  :class:`MitigationStrategy` protocol: strategies stack
  (``readout+zne``), declare their extra-execution cost, and ride the
  sweep runtime as a first-class :class:`~repro.runtime.SweepCell`
  axis whose scaled-noise executions share the compile/stage/trace
  caches.
"""

from repro.mitigation.readout import (
    ReadoutMitigator,
    ReadoutStrategy,
    confusion_matrix,
)
from repro.mitigation.strategy import (
    ComposedStrategy,
    MitigatedResult,
    MitigationContext,
    MitigationStrategy,
    strategy_from_spec,
)
from repro.mitigation.zne import (
    DEFAULT_SCALES,
    ZNE_AMPLIFIERS,
    ZNE_FITS,
    FoldingPass,
    ScaledNoiseModel,
    ZneStrategy,
    achieved_scale,
    extrapolate,
    fold_circuit,
    fold_physical,
    folded_pipeline,
    linear_extrapolate,
    richardson_extrapolate,
)

__all__ = [
    "ComposedStrategy",
    "DEFAULT_SCALES",
    "FoldingPass",
    "MitigatedResult",
    "MitigationContext",
    "MitigationStrategy",
    "ReadoutMitigator",
    "ReadoutStrategy",
    "ScaledNoiseModel",
    "ZNE_AMPLIFIERS",
    "ZNE_FITS",
    "ZneStrategy",
    "achieved_scale",
    "confusion_matrix",
    "extrapolate",
    "fold_circuit",
    "fold_physical",
    "folded_pipeline",
    "linear_extrapolate",
    "richardson_extrapolate",
    "strategy_from_spec",
]
