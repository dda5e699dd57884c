"""Figure 11 — compile-time scalability on random programs.

The paper sweeps randomly generated circuits (4-128 qubits, 128-2048
gates) and shows R-SMT* compile time exploding (hours at 32 qubits)
while the greedy heuristics stay under a second everywhere. We run the
same sweep on near-square grid machines sized to each program, capping
the optimal mapper's search with a time budget: once it exceeds the
cap, the measured wall time is a lower bound (reported with
``truncated=True``), which is all the scaling trend needs.

A post-paper tier extends the figure past compile time: GHZ-mirror
circuits at 30-100 qubits compile with the greedy heuristic and then
*execute* on the stabilizer engine (variant column ``"stabilizer"``),
demonstrating end-to-end noisy simulation at sizes where the dense
engines refuse outright — those points carry a ``success`` column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.compiler import CompilerOptions
from repro.hardware import CalibrationGenerator, square_topology
from repro.experiments.common import format_table
from repro.programs import ghz_mirror, random_circuit
from repro.runtime import SweepCell, run_sweep

#: The paper's full grid; the default run trims it to keep wall time sane.
PAPER_QUBITS = (4, 8, 32, 128)
PAPER_GATES = (128, 192, 256, 384, 512, 768, 1024, 1536, 2048)

DEFAULT_SMT_QUBITS = (4, 8, 32)
DEFAULT_GREEDY_QUBITS = (4, 8, 32, 128)
DEFAULT_GATES = (128, 256, 512, 1024, 2048)
#: GHZ-mirror sizes for the executed stabilizer tier.
DEFAULT_CLIFFORD_QUBITS = (30, 60, 100)


@dataclass
class ScalePoint:
    """One (variant, qubits, gates) compile-time sample.

    ``success`` is populated only by the stabilizer tier (the paper's
    sweep is compile-only); it is the noisy-execution success rate.
    """

    variant: str
    n_qubits: int
    n_gates: int
    compile_time: float
    truncated: bool
    success: Optional[float] = None


@dataclass
class Fig11Result:
    points: List[ScalePoint]

    def series(self, variant: str, n_qubits: int) -> List[Tuple[int, float]]:
        return [(p.n_gates, p.compile_time) for p in self.points
                if p.variant == variant and p.n_qubits == n_qubits]

    def to_text(self) -> str:
        headers = ["variant", "qubits", "gates", "compile time",
                   "truncated", "success"]
        body = [[p.variant, p.n_qubits, p.n_gates,
                 _human_time(p.compile_time), p.truncated,
                 "-" if p.success is None else f"{p.success:.4f}"]
                for p in self.points]
        return format_table(headers, body)


def _human_time(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def run_fig11(smt_qubits: Sequence[int] = DEFAULT_SMT_QUBITS,
              greedy_qubits: Sequence[int] = DEFAULT_GREEDY_QUBITS,
              gate_counts: Sequence[int] = DEFAULT_GATES,
              smt_time_cap: float = 10.0,
              seed: int = 2019,
              workers: int = 0,
              clifford_qubits: Sequence[int] = DEFAULT_CLIFFORD_QUBITS,
              clifford_trials: int = 2048) -> Fig11Result:
    """Reproduce Figure 11's compile-time sweep.

    Args:
        smt_time_cap: Per-compile budget for R-SMT*; samples hitting it
            are flagged truncated (their true cost is higher — the
            paper reports 3 hours at 32 qubits / 384 gates).
        workers: Parallel compile workers. Every point is a distinct
            configuration, so this sweep exercises pure scale-out (no
            cache reuse). Per-point ``compile_time`` is wall-clock
            measured inside the worker: on a host with spare cores the
            fan-out leaves it untouched, but oversubscribed workers
            contend for CPU and inflate it (and near-cap SMT points
            may truncate earlier) — keep the published scaling curve
            serial and use workers for smoke runs.
        clifford_qubits: GHZ-mirror sizes for the executed stabilizer
            tier (compiled with greedy-e, *simulated* on the
            stabilizer engine — the post-paper large-n extension).
            Pass ``()`` to skip the tier.
        clifford_trials: Shots per stabilizer-tier point.
    """
    calibrations = {}
    for n_qubits in sorted(set(smt_qubits) | set(greedy_qubits)
                           | set(clifford_qubits)):
        topo = square_topology(max(n_qubits, 4))
        calibrations[n_qubits] = CalibrationGenerator(
            topo, seed=seed).snapshot(0)

    smt_options = CompilerOptions.r_smt_star().with_(
        solver_time_limit=smt_time_cap)
    greedy_options = CompilerOptions.greedy_e()
    cells = []
    for variant, qubit_list, options in (
            ("greedye*", greedy_qubits, greedy_options),
            ("r-smt*", smt_qubits, smt_options)):
        for n_qubits in qubit_list:
            for n_gates in gate_counts:
                circuit = random_circuit(
                    n_qubits, n_gates,
                    seed=seed + n_qubits * 10000 + n_gates)
                cells.append(SweepCell(
                    circuit=circuit, calibration=calibrations[n_qubits],
                    options=options, simulate=False,
                    key=(variant, n_qubits, n_gates)))
    for n_qubits in clifford_qubits:
        circuit = ghz_mirror(n_qubits)
        cells.append(SweepCell(
            circuit=circuit, calibration=calibrations[n_qubits],
            options=greedy_options, engine="stabilizer",
            trials=clifford_trials, seed=seed,
            expected="0" * n_qubits,
            key=("stabilizer", n_qubits, circuit.gate_count())))

    points: List[ScalePoint] = []
    for result in run_sweep(cells, workers=workers, strict=True):
        variant, n_qubits, n_gates = result.key
        truncated = (variant == "r-smt*"
                     and not result.compiled.mapping.optimal)
        success = result.success_rate if variant == "stabilizer" else None
        points.append(ScalePoint(variant, n_qubits, n_gates,
                                 result.compiled.compile_time, truncated,
                                 success))
    return Fig11Result(points=points)
