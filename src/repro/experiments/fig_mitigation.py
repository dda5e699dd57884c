"""Mitigation study — mitigated vs unmitigated success across Table 2.

Not a figure from the paper: the paper stops at noise-adaptive
*mapping*, and this study measures how much further post-compilation
*error mitigation* (:mod:`repro.mitigation`) lifts the measured success
probability on top of each mapping variant. The grid is (benchmark x
mapping variant x mitigation strategy), expressed as
:class:`~repro.runtime.SweepCell` rows with the ``mitigation`` axis
set, so every scaled-noise or folded execution rides the sweep
runtime's compile/stage/trace caches.

Expected shape: mitigation helps everywhere it has signal — ZNE
recovers several points of success on most benchmarks (more where the
raw success is mid-range, where the decay slope is steep), readout
inversion recovers roughly the per-qubit readout error mass, and the
stack beats either alone — while *ranking* between mapping variants is
preserved (mitigation multiplies reliability, it does not replace a
good mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import CompilerOptions
from repro.exceptions import ReproError
from repro.experiments.common import (
    DEFAULT_TRIALS,
    BackendLike,
    format_table,
    geometric_mean,
    harness_calibration,
    resolve_backend,
)
from repro.hardware import Calibration
from repro.mitigation import MitigationStrategy, ZneStrategy, \
    strategy_from_spec
from repro.programs import get_benchmark
from repro.runtime import CellResult, SweepCell, SweepResult, run_sweep

#: Default benchmark subset: spans the zero-SWAP star family and the
#: SWAP-heavy triangle family without paying for all twelve programs.
DEFAULT_BENCHMARKS: Tuple[str, ...] = (
    "BV4", "BV6", "HS2", "HS4", "Toffoli", "Peres",
)


@dataclass
class MitigationStudyResult:
    """Raw and mitigated success per (benchmark, variant, strategy)."""

    runs: Dict[str, Dict[str, Dict[str, CellResult]]]
    #: benchmark -> variant label -> strategy name -> cell result
    variants: List[str]
    strategies: List[str]
    sweep: Optional[SweepResult] = None

    def cell(self, benchmark: str, variant: str,
             strategy: str) -> CellResult:
        try:
            return self.runs[benchmark][variant][strategy]
        except KeyError:
            raise ReproError(
                f"no study cell ({benchmark!r}, {variant!r}, "
                f"{strategy!r})") from None

    def raw(self, benchmark: str, variant: str) -> float:
        """Unmitigated success (identical baseline for every strategy)."""
        return self.cell(benchmark, variant,
                         self.strategies[0]).mitigation.raw_success

    def mitigated(self, benchmark: str, variant: str,
                  strategy: str) -> float:
        return self.cell(benchmark, variant,
                         strategy).mitigation.mitigated_success

    def gain(self, benchmark: str, variant: str, strategy: str) -> float:
        """Mitigated minus raw success."""
        return self.cell(benchmark, variant, strategy).mitigation.gain

    def improved(self, variant: str, strategy: str) -> List[str]:
        """Benchmarks where the strategy beat the raw baseline."""
        return [b for b in self.runs
                if self.gain(b, variant, strategy) > 0.0]

    def geomean_lift(self, variant: str, strategy: str) -> float:
        """Geometric-mean mitigated/raw success ratio across benchmarks."""
        ratios = []
        for benchmark in self.runs:
            raw = self.raw(benchmark, variant)
            if raw > 0.0:
                ratios.append(
                    self.mitigated(benchmark, variant, strategy) / raw)
        return geometric_mean(ratios)

    def to_text(self) -> str:
        headers = ["benchmark", "variant", "raw"] + list(self.strategies)
        body = []
        for benchmark in self.runs:
            for variant in self.variants:
                row: List[object] = [benchmark, variant,
                                     self.raw(benchmark, variant)]
                row.extend(self.mitigated(benchmark, variant, s)
                           for s in self.strategies)
                body.append(row)
        lines = [format_table(headers, body), ""]
        for variant in self.variants:
            for strategy in self.strategies:
                improved = self.improved(variant, strategy)
                lines.append(
                    f"{strategy} on {variant}: geomean lift "
                    f"{self.geomean_lift(variant, strategy):.2f}x, "
                    f"improved {len(improved)}/{len(self.runs)} "
                    f"benchmarks")
        if self.sweep is not None:
            lines.append(self.sweep.summary())
        return "\n".join(lines)


def run_mitigation_study(
        benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
        variants: Optional[Sequence[CompilerOptions]] = None,
        strategies: Optional[Sequence[MitigationStrategy]] = None,
        calibration: Optional[Calibration] = None,
        trials: int = DEFAULT_TRIALS, seed: int = 7,
        workers: int = 0, cache_dir=None,
        backend: BackendLike = None) -> MitigationStudyResult:
    """Run the (benchmark x variant x strategy) mitigation grid.

    Args:
        benchmarks: Table-2 benchmark names.
        variants: Compiler configurations to map with (default: T-SMT*
            with one-bend routing, and R-SMT*).
        strategies: Mitigation strategies to apply (default: ZNE,
            readout inversion, and their stack).
        calibration: Machine snapshot (default: day-0 of the backend,
            or of IBMQ16).
        trials: Shots per execution (scaled executions included).
        seed: Base executor seed.
        workers: Sweep worker processes.
        cache_dir: Optional disk store directory for the sweep's
            caches and cell journal.
        backend: Machine to run on — a preset name or a
            :class:`~repro.backend.Backend` (default: IBMQ16).
    """
    backend = resolve_backend(backend)
    cal = harness_calibration(backend, calibration)
    variants = list(variants) if variants is not None else [
        CompilerOptions.t_smt_star(routing="1bp"),
        CompilerOptions.r_smt_star(omega=0.5),
    ]
    strategies = list(strategies) if strategies is not None else [
        ZneStrategy(),
        strategy_from_spec("readout"),
        strategy_from_spec("readout+zne"),
    ]
    specs = {name: get_benchmark(name) for name in benchmarks}
    circuits = {name: spec.build() for name, spec in specs.items()}
    cells = [SweepCell(circuit=circuits[name], calibration=cal,
                       options=options, expected=specs[name].expected_output,
                       trials=trials, seed=seed, mitigation=strategy,
                       backend=backend,
                       key=(name, options.variant, strategy.name))
             for name in benchmarks
             for options in variants
             for strategy in strategies]
    sweep = run_sweep(cells, workers=workers, cache_dir=cache_dir,
                      strict=True)

    runs: Dict[str, Dict[str, Dict[str, CellResult]]] = {}
    for result in sweep:
        benchmark, variant, strategy = result.key
        runs.setdefault(benchmark, {}).setdefault(variant, {})[strategy] = \
            result
    return MitigationStudyResult(
        runs=runs,
        variants=[options.variant for options in variants],
        strategies=[strategy.name for strategy in strategies],
        sweep=sweep)
