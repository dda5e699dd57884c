"""Ablation studies for the design choices the README's "Substitutions"
lists.

Not figures from the paper — these quantify the repo's own knobs:

* **omega fine sweep** — success rate of R-SMT* across a dense omega
  grid (the paper only samples {0, 0.5, 1});
* **greedy seed expansion** — GreedyE* with and without the
  expansion-potential term in its seed-edge score;
* **peephole** — movement-CNOT and duration reduction from
  adjacent-inverse cancellation, per variant;
* **swap-return convention** — one-way (paper objective) vs round-trip
  (executed cost) reliability scoring, compared against measured
  success rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import (
    CompilerOptions,
    MappingPass,
    PassManager,
    PeepholePass,
    ReliabilityPass,
    SchedulingPass,
    SwapInsertPass,
)
from repro.experiments.common import (
    DEFAULT_TRIALS,
    format_table,
)
from repro.hardware import (
    Calibration,
    ReliabilityTables,
    default_ibmq16_calibration,
)
from repro.programs import all_benchmarks, get_benchmark
from repro.runtime import StageCache, SweepCell, run_sweep
from repro.simulator import execute


@dataclass
class OmegaSweepResult:
    """success[benchmark][omega] over a dense omega grid."""

    omegas: List[float]
    success: Dict[str, Dict[float, float]]

    def best_omega(self, benchmark: str) -> float:
        by_omega = self.success[benchmark]
        return max(by_omega, key=by_omega.get)

    def to_text(self) -> str:
        headers = ["benchmark"] + [f"w={w:g}" for w in self.omegas] + ["best"]
        body = []
        for bench, by_omega in self.success.items():
            body.append([bench] + [by_omega[w] for w in self.omegas]
                        + [f"{self.best_omega(bench):g}"])
        return format_table(headers, body)


def run_omega_sweep(benchmarks: Sequence[str] = ("BV4", "HS6", "Toffoli"),
                    omegas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
                    calibration: Optional[Calibration] = None,
                    trials: int = DEFAULT_TRIALS,
                    seed: int = 7, workers: int = 0) -> OmegaSweepResult:
    """Dense omega sweep of R-SMT* success rate."""
    cal = calibration or default_ibmq16_calibration()
    specs = {b: get_benchmark(b) for b in benchmarks}
    circuits = {b: spec.build() for b, spec in specs.items()}
    cells = [SweepCell(circuit=circuits[bench], calibration=cal,
                       options=CompilerOptions.r_smt_star(omega=omega),
                       expected=specs[bench].expected_output,
                       trials=trials, seed=seed, key=(bench, omega))
             for bench in benchmarks for omega in omegas]
    success: Dict[str, Dict[float, float]] = {b: {} for b in benchmarks}
    for result in run_sweep(cells, workers=workers, strict=True):
        bench, omega = result.key
        success[bench][omega] = result.success_rate
    return OmegaSweepResult(omegas=list(omegas), success=success)


@dataclass
class PeepholeAblationResult:
    """Per-benchmark effect of the peephole pass on the baseline."""

    rows: List[Tuple[str, int, int, float, float]]
    # (benchmark, cnots before, cnots after, success before, success after)

    def to_text(self) -> str:
        headers = ["benchmark", "phys CNOTs", "w/ peephole",
                   "success", "w/ peephole"]
        return format_table(headers, self.rows)


def run_peephole_ablation(calibration: Optional[Calibration] = None,
                          trials: int = DEFAULT_TRIALS, seed: int = 7,
                          subset: Optional[List[str]] = None
                          ) -> PeepholeAblationResult:
    """Effect of adjacent-inverse cancellation on the Qiskit baseline.

    Built as an explicit pipeline *edit* rather than an option flag:
    the tidy arm is the plain pass list with :class:`PeepholePass`
    inserted after SWAP insertion. Both arms run through one shared
    :class:`~repro.runtime.StageCache`, so the mapping → schedule →
    swap-insert prefix is computed once per benchmark and only the
    peephole (and downstream reliability) stages differ.
    """
    cal = calibration or default_ibmq16_calibration()
    tables = ReliabilityTables(cal)
    stages = StageCache()
    prefix = [MappingPass("qiskit"), SchedulingPass(), SwapInsertPass()]
    plain_pipeline = PassManager(prefix + [ReliabilityPass()])
    tidy_pipeline = PassManager(prefix + [PeepholePass(),
                                          ReliabilityPass()])
    rows = []
    for name, circuit, expected in all_benchmarks(subset):
        plain = plain_pipeline.run(circuit, cal, CompilerOptions.qiskit(),
                                   tables=tables, stage_cache=stages)
        tidy = tidy_pipeline.run(
            circuit, cal, CompilerOptions.qiskit().with_(peephole=True),
            tables=tables, stage_cache=stages)
        rows.append((
            name,
            plain.physical.circuit.cnot_count(),
            tidy.physical.circuit.cnot_count(),
            execute(plain, cal, trials=trials, seed=seed,
                    expected=expected).success_rate,
            execute(tidy, cal, trials=trials, seed=seed,
                    expected=expected).success_rate,
        ))
    return PeepholeAblationResult(rows=rows)


@dataclass
class ConventionAblationResult:
    """One-way vs round-trip reliability estimates vs measured success."""

    rows: List[Tuple[str, float, float, float]]
    # (benchmark, one-way estimate, round-trip estimate, measured)

    def mean_abs_error(self, which: str) -> float:
        idx = 1 if which == "one-way" else 2
        errors = [abs(r[idx] - r[3]) for r in self.rows]
        return sum(errors) / len(errors)

    def to_text(self) -> str:
        headers = ["benchmark", "est (one-way)", "est (round-trip)",
                   "measured"]
        table = format_table(headers, self.rows)
        return (table
                + f"\n\nmean |estimate - measured|: one-way "
                  f"{self.mean_abs_error('one-way'):.3f}, round-trip "
                  f"{self.mean_abs_error('round-trip'):.3f}")


def run_convention_ablation(calibration: Optional[Calibration] = None,
                            trials: int = DEFAULT_TRIALS, seed: int = 7,
                            subset: Optional[List[str]] = None,
                            workers: int = 0) -> ConventionAblationResult:
    """Which reliability convention predicts measured success better?

    The executed circuit really does swap back, so the round-trip
    product should track measurement more closely on swap-heavy
    mappings; on zero-swap mappings the two coincide.
    """
    cal = calibration or default_ibmq16_calibration()
    cells = [SweepCell(circuit=circuit, calibration=cal,
                       options=CompilerOptions.qiskit(),
                       expected=expected, trials=trials, seed=seed,
                       key=name)
             for name, circuit, expected in all_benchmarks(subset)]
    rows = []
    for result in run_sweep(cells, workers=workers, strict=True):
        est = result.compiled.reliability
        rows.append((result.key, est.score, est.round_trip_score,
                     result.success_rate))
    return ConventionAblationResult(rows=rows)
