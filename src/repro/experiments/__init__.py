"""Experiment harnesses regenerating every table and figure of the paper."""

from repro.experiments.common import (
    DEFAULT_TRIALS,
    BenchmarkRun,
    format_table,
    geometric_mean,
    run_benchmark_grid,
)
from repro.experiments.ablations import (
    ConventionAblationResult,
    OmegaSweepResult,
    PeepholeAblationResult,
    run_convention_ablation,
    run_omega_sweep,
    run_peephole_ablation,
)
from repro.experiments.fig1_calibration import Fig1Result, run_fig1
from repro.experiments.fig5_success import Fig5Result, run_fig5
from repro.experiments.fig6_weekly import Fig6Result, run_fig6
from repro.experiments.fig7_omega import Fig7Result, run_fig7
from repro.experiments.fig8_mappings import Fig8Result, run_fig8
from repro.experiments.fig9_durations import Fig9Result, run_fig9
from repro.experiments.fig10_heuristics import Fig10Result, run_fig10
from repro.experiments.fig11_scalability import (
    Fig11Result,
    ScalePoint,
    run_fig11,
)
from repro.experiments.fig_mitigation import (
    MitigationStudyResult,
    run_mitigation_study,
)
from repro.experiments.table2_benchmarks import Table2Result, run_table2

__all__ = [
    "BenchmarkRun",
    "ConventionAblationResult",
    "DEFAULT_TRIALS",
    "OmegaSweepResult",
    "PeepholeAblationResult",
    "run_convention_ablation",
    "run_omega_sweep",
    "run_peephole_ablation",
    "Fig10Result",
    "Fig11Result",
    "Fig1Result",
    "Fig5Result",
    "Fig6Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "MitigationStudyResult",
    "ScalePoint",
    "Table2Result",
    "format_table",
    "geometric_mean",
    "run_benchmark_grid",
    "run_fig1",
    "run_fig10",
    "run_fig11",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_mitigation_study",
    "run_table2",
]
