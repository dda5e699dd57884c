"""Figure 5 — measured success rate: Qiskit vs T-SMT* vs R-SMT* (w=0.5).

The paper's headline experiment: all 12 benchmarks compiled by the
three configurations and executed (8192 trials on IBMQ16; here,
Monte-Carlo trials on the noisy simulator). Expected shape: R-SMT*
beats Qiskit on every benchmark (paper geomean 2.9x, up to 18x) and
beats T-SMT* everywhere; zero-SWAP-mappable benchmarks (BV, HS, QFT,
Adder) come out more reliable than the Toffoli family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler import CompilerOptions
from repro.experiments.common import (
    DEFAULT_TRIALS,
    BackendLike,
    BenchmarkRun,
    format_table,
    geometric_mean,
    harness_calibration,
    resolve_backend,
    run_benchmark_grid,
)
from repro.hardware import Calibration
from repro.programs import all_benchmarks
from repro.runtime import SweepCell


@dataclass
class Fig5Result:
    """Success rates per benchmark per variant."""

    runs: Dict[str, Dict[str, BenchmarkRun]]  # benchmark -> variant -> run
    variants: List[str]

    def success(self, benchmark: str, variant: str) -> float:
        return self.runs[benchmark][variant].success_rate

    def improvement_over(self, baseline: str, variant: str) -> Dict[str, float]:
        """Per-benchmark success ratio variant/baseline."""
        out = {}
        for b, by_variant in self.runs.items():
            base = by_variant[baseline].success_rate
            out[b] = (by_variant[variant].success_rate / base
                      if base > 0 else float("inf"))
        return out

    def geomean_improvement(self, baseline: str, variant: str) -> float:
        ratios = [r for r in
                  self.improvement_over(baseline, variant).values()
                  if r != float("inf")]
        return geometric_mean(ratios)

    def to_text(self) -> str:
        headers = ["benchmark"] + self.variants + ["swaps(r-smt*)"]
        body = []
        for b, by_variant in self.runs.items():
            row = [b] + [by_variant[v].success_rate for v in self.variants]
            row.append(by_variant["r-smt*"].compiled.swap_count)
            body.append(row)
        table = format_table(headers, body)
        gm = self.geomean_improvement("qiskit", "r-smt*")
        finite = [r for r in self.improvement_over("qiskit", "r-smt*").values()
                  if r != float("inf")]
        peak = max(finite) if finite else float("nan")
        return (table + f"\n\nR-SMT* vs Qiskit: geomean {gm:.2f}x, "
                        f"max {peak:.2f}x (paper: 2.9x geomean, 18x max)")


def run_fig5(calibration: Optional[Calibration] = None,
             trials: int = DEFAULT_TRIALS, seed: int = 7,
             subset: Optional[List[str]] = None,
             workers: int = 0, backend: BackendLike = None) -> Fig5Result:
    """Reproduce Figure 5 on the given calibration snapshot (or on
    ``backend``'s day-0 snapshot — any preset name or Backend works)."""
    backend = resolve_backend(backend)
    cal = harness_calibration(backend, calibration)
    configs = [CompilerOptions.qiskit(),
               CompilerOptions.t_smt_star(routing="1bp"),
               CompilerOptions.r_smt_star(omega=0.5)]
    cells = [SweepCell(circuit=circuit, calibration=cal, options=options,
                       expected=expected, trials=trials, seed=seed,
                       backend=backend, key=(name, options.variant))
             for name, circuit, expected in all_benchmarks(subset)
             for options in configs]
    runs, _ = run_benchmark_grid(cells, workers=workers)
    return Fig5Result(runs=runs, variants=[c.variant for c in configs])
