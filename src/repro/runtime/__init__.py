"""Scenario-sweep runtime: declarative grids, process-pool execution,
and content-addressed compile/trace caching.

The experiment harnesses (``repro.experiments``) and the ``repro
sweep`` CLI subcommand express their (benchmark x variant x calibration
x seed) grids as :class:`SweepCell` lists and execute them through
:func:`run_sweep`; see :mod:`repro.runtime.sweep` for the determinism
and caching contract.
"""

from repro.runtime.cache import (
    CacheStats,
    CompileCache,
    CompileKey,
    PrefixKey,
    StageCache,
    TraceCache,
    compile_key,
    mapping_prefix_key,
)
from repro.runtime.diskcache import DiskStore, ResultJournal, StoreStats
from repro.runtime.faults import FaultPlan, faults_armed
from repro.runtime.sweep import (
    DEFAULT_TRIALS,
    CellFailure,
    CellResult,
    SweepCell,
    SweepResult,
    cell_fingerprint,
    run_cell,
    run_cell_guarded,
    run_sweep,
)

__all__ = [
    "CacheStats",
    "CellFailure",
    "CellResult",
    "CompileCache",
    "CompileKey",
    "DEFAULT_TRIALS",
    "DiskStore",
    "FaultPlan",
    "PrefixKey",
    "ResultJournal",
    "StageCache",
    "StoreStats",
    "SweepCell",
    "SweepResult",
    "TraceCache",
    "cell_fingerprint",
    "compile_key",
    "faults_armed",
    "mapping_prefix_key",
    "run_cell",
    "run_cell_guarded",
    "run_sweep",
]
