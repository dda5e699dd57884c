"""Shared utilities for the per-figure experiment harnesses.

Since the sweep runtime landed, every harness expresses its grid as
:class:`~repro.runtime.SweepCell` lists executed by
:func:`~repro.runtime.run_sweep` (serially by default; pass
``workers >= 2`` to fan out over a process pool — results are
bit-identical either way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.backend import Backend, get_backend
from repro.compiler import CompiledProgram
from repro.hardware import Calibration, default_ibmq16_calibration
from repro.runtime import DEFAULT_TRIALS, SweepCell, SweepResult, run_sweep
from repro.simulator import ExecutionResult

#: What every harness's ``backend=`` parameter accepts: a Backend, a
#: preset name (the CLI's ``--device`` string), or None.
BackendLike = Union[str, Backend, None]

# DEFAULT_TRIALS (re-exported from repro.runtime, the single source of
# truth): the paper uses 8192 hardware shots; 1024 simulated trials
# gives ~1.5% standard error, plenty to resolve the multi-x effects
# under study, at an eighth of the cost.


def resolve_backend(backend: BackendLike) -> Optional[Backend]:
    """The uniform ``backend=`` contract of the figure harnesses.

    ``None`` passes through (the harness falls back to its historical
    IBMQ16 default), a string names a
    :data:`~repro.backend.BACKENDS` preset (with its did-you-mean
    error), and a :class:`~repro.backend.Backend` is used as-is.
    """
    if backend is None or isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def harness_calibration(backend: Optional[Backend],
                        calibration: Optional[Calibration],
                        day: int = 0) -> Calibration:
    """The harness rule for picking a snapshot: an explicit
    ``calibration=`` wins, then the backend's day-*day* snapshot, then
    the repo-wide default IBMQ16 day-0 snapshot."""
    if calibration is not None:
        return calibration
    if backend is not None:
        return backend.calibration(day)
    return default_ibmq16_calibration()


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = [math.log(v) for v in values if v > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + \
        [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


@dataclass
class BenchmarkRun:
    """One (benchmark, compiler variant) measurement."""

    benchmark: str
    variant: str
    compiled: CompiledProgram
    execution: Optional[ExecutionResult] = None

    @property
    def success_rate(self) -> float:
        assert self.execution is not None
        return self.execution.success_rate

    @property
    def duration(self) -> float:
        return self.compiled.duration

    @property
    def compile_time(self) -> float:
        return self.compiled.compile_time


def run_benchmark_grid(cells: Sequence[SweepCell], workers: int = 0
                       ) -> Tuple[Dict[str, Dict[str, BenchmarkRun]],
                                  SweepResult]:
    """Execute cells keyed ``(benchmark, label)`` and file the results.

    The common shape of fig5/fig7/fig9/fig10: a benchmark x variant
    grid whose results are consumed as ``runs[benchmark][label]``.

    Returns:
        (nested run dict, the raw :class:`~repro.runtime.SweepResult`
        with cache/time stats).
    """
    sweep = run_sweep(cells, workers=workers, strict=True)
    runs: Dict[str, Dict[str, BenchmarkRun]] = {}
    for result in sweep:
        bench, label = result.key
        runs.setdefault(bench, {})[label] = BenchmarkRun(
            benchmark=bench, variant=label, compiled=result.compiled,
            execution=result.execution)
    return runs, sweep
