"""Declarative scenario sweeps with deterministic parallel execution.

An experiment is expressed as a flat grid of :class:`SweepCell` values
— (circuit, options, backend/calibration, trials, seed, engine) — and
handed to :func:`run_sweep`, which executes the cells serially or
across a process pool and returns per-cell results in grid order.

"Which machine" is a first-class axis: a cell may name a
:class:`~repro.backend.Backend` instead of (or in addition to) a
concrete calibration — the calibration and engine fields are then
derived from the backend (day-*day* snapshot, default engine) but
remain overridable. Cache keys see the backend only through that
calibration's ``content_id()``, so content-equal snapshots share
entries on every tier (compile, stage, trace) whichever backend made
them, and the parallel scheduler groups cells by machine before
mapping-prefix so per-device
:class:`~repro.hardware.ReliabilityTables` memos are shared within a
worker.

Failures are first-class: an exception inside a cell (or the death of
the worker running it) is captured as a :class:`CellFailure` on that
cell's result rather than aborting the grid, so a multi-hour sweep
returns every surviving cell plus a failure report
(``strict=True`` restores raise-on-first-error). With a disk store
(``cache_dir=``, or a ``compile_cache`` built on one), completed cells
are checkpoint-journaled as they finish and ``resume=True`` skips them
after a crash or Ctrl-C — bit-identical to an uninterrupted run by
construction.

Three properties the figure harnesses rely on:

* **Determinism** — a cell's result is a pure function of the cell:
  compilation is deterministic (branch-and-bound with a fixed
  expansion order) and execution draws from
  ``np.random.default_rng(cell.seed)``. Parallel runs are therefore
  bit-identical to serial runs at any worker count — with one caveat:
  a solve that hits its ``solver_time_limit`` truncates on wall-clock
  time, so cells near the cap (fig11's scaling points) may settle on a
  different incumbent under load. Paper-scale cells finish orders of
  magnitude under the default limit and are unaffected.
* **Cross-cell caching** — cells sharing a compile key (circuit
  fingerprint, calibration id, options fingerprint) share one
  compilation; cells sharing only a *mapping-prefix* key (circuit,
  calibration, mapping-stage fingerprint) still share the expensive
  mapping artifact through the pipeline stage cache; and cells
  additionally sharing a noise model share one lowered
  :class:`~repro.simulator.trace.ProgramTrace`. Only the sampling
  stage is paid per cell. See :mod:`repro.runtime.cache`.
* **Placement-aware scheduling** — the parallel path groups cells by
  mapping-prefix key (which subsumes grouping by compile key: equal
  compile keys imply equal prefix keys) and assigns whole groups to
  workers, so every duplicate configuration lands where its
  compilation is cached and every post-mapping variation lands where
  its mapping is cached. Cache hit counts are thus the same at every
  worker count (and equal to the serial path's), not an accident of
  scheduling. The deliberate tradeoff: a grid dominated by one giant
  group parallelizes poorly (a single-group grid runs serially) —
  splitting groups would buy pool width at the cost of duplicate
  compiles and scheduling-dependent hit counts.
"""

from __future__ import annotations

import time
import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, \
    Tuple

from repro.backend import DEFAULT_ENGINE, Backend, engine_name
from repro.compiler import CompiledProgram, CompilerOptions
from repro.exceptions import CellExecutionError, ReproError
from repro.hardware import Calibration
from repro.ir.circuit import Circuit
from repro.runtime.cache import (
    CacheStats,
    CompileCache,
    CompileKey,
    PrefixKey,
    TraceCache,
    compile_key,
    mapping_prefix_key,
)
from repro.runtime.diskcache import DiskStore, StoreStats
from repro.simulator import ExecutionResult, execute

if TYPE_CHECKING:  # runtime import stays lazy: see run_cell
    from repro.mitigation.strategy import MitigatedResult, MitigationStrategy

#: Default shot count per cell — the repo-wide source of truth
#: (``repro.experiments`` re-exports it). The paper uses 8192 hardware
#: shots; 1024 simulated trials gives ~1.5% standard error.
DEFAULT_TRIALS = 1024


@dataclass
class SweepCell:
    """One point of an experiment grid.

    Attributes:
        circuit: The logical program to compile.
        calibration: Machine snapshot to compile for and execute under.
            Optional when a ``backend`` is set — it then defaults to
            the backend's day-``day`` snapshot (explicit values win,
            e.g. to model stale-calibration compilation).
        options: Compiler configuration (required; keyword-friendly
            ``None`` default only so ``calibration`` can be optional).
        expected: The benchmark's known answer (success-rate accounting).
        trials: Shot count.
        seed: Per-cell master RNG seed. Seeding is the cell's own
            responsibility precisely so that execution order — serial,
            parallel, any worker count — cannot change results.
        simulate: When ``False``, compile only (fig8/fig9/fig11 style).
        engine: Executor engine name, one of
            :data:`~repro.backend.engines.ENGINES` in any case (stored
            lowercased). Defaults to the backend's ``default_engine``,
            or ``"batched"`` without a backend. An unknown name raises
            :class:`~repro.exceptions.SimulationError` when the cell is
            built.
        array_backend: ``None`` or ``"numpy"``, the one array library
            the dense engine runs on; anything else raises
            :class:`~repro.exceptions.ReproError`. Accepted so grids
            that name it keep working; it changes nothing, so no cache
            key or fingerprint includes it.
        mitigation: Optional error-mitigation strategy
            (:mod:`repro.mitigation`) applied on top of the baseline
            execution. The strategy's extra executions (noise-scaled
            traces, folded recompiles) run against the same
            compile/stage/trace caches as the baseline, so replicated
            cells amortize them like any other artifact. Requires
            ``simulate=True`` and an ``expected`` outcome.
        backend: Optional :class:`~repro.backend.Backend` — the cell's
            machine axis. Supplies the derived calibration/engine
            defaults above and the scheduler's machine grouping; cache
            keys see it only through the calibration.
        day: Calibration day used when the calibration is derived from
            the backend (ignored when ``calibration`` is explicit).
        key: Free-form hashable identifier the harness uses to file the
            result (e.g. ``("BV4", "r-smt*", day)``).
    """

    circuit: Circuit
    calibration: Optional[Calibration] = None
    options: Optional[CompilerOptions] = None
    expected: Optional[str] = None
    trials: int = DEFAULT_TRIALS
    seed: int = 7
    simulate: bool = True
    engine: Optional[str] = None
    array_backend: Optional[str] = None
    mitigation: Optional["MitigationStrategy"] = None
    backend: Optional[Backend] = None
    day: int = 0
    key: Hashable = None

    def __post_init__(self) -> None:
        if self.options is None:
            raise ReproError("SweepCell needs compiler options")
        if self.array_backend not in (None, "numpy"):
            raise ReproError(
                f"SweepCell.array_backend must be None or 'numpy', got "
                f"{self.array_backend!r}")
        if self.calibration is None:
            if self.backend is None:
                raise ReproError(
                    "SweepCell needs a calibration or a backend to "
                    "derive one from")
            self.calibration = self.backend.calibration(self.day)
        if self.engine is None:
            self.engine = (self.backend.default_engine
                           if self.backend is not None else DEFAULT_ENGINE)
        # Checked here so a bad name fails before anything compiles, and
        # lowercased so every spelling shares one fingerprint.
        self.engine = engine_name(self.engine)

    def machine_key(self) -> str:
        """Content identity of the cell's machine (backend when set,
        bare calibration otherwise) — the scheduler's outer grouping
        level, so one worker builds a device's tables for all its
        days."""
        if self.backend is not None:
            return self.backend.content_id()
        return self.calibration.content_id()

    def compile_key(self) -> CompileKey:
        """Content key of this cell's compilation stage."""
        return compile_key(self.circuit, self.calibration, self.options)

    def prefix_key(self) -> PrefixKey:
        """Content key of this cell's mapping stage (coarser than
        :meth:`compile_key`): cells sharing it reuse one mapping
        artifact even when their post-mapping options differ."""
        return mapping_prefix_key(self.circuit, self.calibration,
                                  self.options)


def cell_fingerprint(cell: SweepCell) -> str:
    """Content identity of a cell's *result* — the checkpoint-journal
    key.

    Covers everything a :class:`CellResult` is a pure function of:
    circuit, calibration content, compiler options, expected outcome,
    trial count, seed, simulate flag, engine, and mitigation strategy.
    Two cells with equal fingerprints are guaranteed identical results,
    so a journaled result can stand in for re-execution bit-for-bit.
    The cell's free-form ``key`` is deliberately excluded — it names
    the result, it doesn't determine it, so a stored result is served
    under the requesting cell's key. The backend enters only through its
    calibration, and ``array_backend`` not at all: it has one value.
    """
    return "|".join((
        "cell-v1",
        cell.circuit.fingerprint(),
        cell.calibration.content_id(),
        cell.options.fingerprint(),
        repr(cell.expected),
        str(cell.trials),
        str(cell.seed),
        "sim" if cell.simulate else "compile-only",
        cell.engine,
        cell.mitigation.fingerprint() if cell.mitigation is not None
        else "-",
    ))


@dataclass
class CellFailure:
    """Structured record of one cell's failure.

    Captured instead of propagated (unless ``strict``), so a sweep
    returns every surviving cell plus a report of exactly what failed
    and why — the degradation contract of the supervised runtime.

    Attributes:
        key: The failing cell's identifier.
        index: The cell's grid position.
        error_type: Exception class name (``"FaultInjected"``,
            ``"MappingError"``, ...), or a synthetic kind for
            non-exception deaths (``"WorkerDied"``, ``"WorkerTimeout"``).
        message: The exception message / death description.
        traceback: Full formatted traceback (empty for worker deaths —
            the process took its stack with it).
        attempts: Execution attempts charged to this cell before it
            was declared failed (1 for in-cell exceptions, which are
            deterministic and not retried; up to ``max_retries + 1``
            for worker deaths).
        stage: Where the failure was observed: ``"cell"`` (exception
            inside :func:`run_cell`), ``"worker"`` (the worker process
            died), or ``"timeout"`` (the watchdog killed a stuck
            worker).
        program: The failing cell's circuit name — so a
            ``SolverError``/``MappingError`` buried in a 200-cell sweep
            names its benchmark without the caller joining against the
            grid by index.
        mapper: The cell's compiler variant (``"r-smt*"``, ...) — the
            mapping policy that was running when the cell failed.
    """

    key: Hashable
    index: int
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    stage: str = "cell"
    program: str = ""
    mapper: str = ""

    @classmethod
    def from_exception(cls, index: int, key: Hashable, exc: Exception,
                       attempts: int = 1,
                       cell: Optional["SweepCell"] = None) -> "CellFailure":
        return cls(key=key, index=index, error_type=type(exc).__name__,
                   message=str(exc),
                   traceback="".join(_traceback.format_exception(
                       type(exc), exc, exc.__traceback__)),
                   attempts=attempts, stage="cell",
                   program=_cell_program(cell), mapper=_cell_mapper(cell))

    def describe(self) -> str:
        """One-line rendering for the failure report."""
        where = ""
        if self.program or self.mapper:
            where = (f" [{self.program or '?'}"
                     f" via {self.mapper or '?'}]")
        return (f"cell {self.key!r} (grid index {self.index}){where}: "
                f"{self.error_type}: {self.message} "
                f"[stage={self.stage}, attempts={self.attempts}]")


def _cell_program(cell: Optional["SweepCell"]) -> str:
    """The cell's circuit name, defensively ("" when unknown)."""
    if cell is None:
        return ""
    circuit = getattr(cell, "circuit", None)
    return str(getattr(circuit, "name", "") or "")


def _cell_mapper(cell: Optional["SweepCell"]) -> str:
    """The cell's compiler variant, defensively ("" when unknown)."""
    if cell is None:
        return ""
    options = getattr(cell, "options", None)
    return str(getattr(options, "variant", "") or "")


@dataclass
class CellResult:
    """Outcome of one sweep cell.

    Attributes:
        key: The cell's identifier, copied through.
        compiled: The compiled artifact (possibly shared with other
            cells via the compile cache); ``None`` when the cell
            failed before compilation finished.
        execution: Monte-Carlo outcome (``None`` for compile-only cells).
        compile_cache_hit: Whether compilation was served from cache.
        trace_cache_hit: Whether the lowered trace was served from cache.
        mitigation: Outcome of the cell's mitigation strategy, when one
            was set.
        failure: The cell's failure record, or ``None`` on success —
            the failed-cell channel of the fault-tolerant runtime.
        resumed: True when this result was served from the checkpoint
            journal instead of executed (``run_sweep(resume=True)``).
    """

    key: Hashable
    compiled: Optional[CompiledProgram] = None
    execution: Optional[ExecutionResult] = None
    compile_cache_hit: bool = False
    trace_cache_hit: bool = False
    mitigation: Optional["MitigatedResult"] = None
    failure: Optional[CellFailure] = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the cell completed (its channels are populated)."""
        return self.failure is None

    @property
    def success_rate(self) -> float:
        if self.failure is not None:
            raise ReproError(
                f"cell {self.key!r} failed "
                f"({self.failure.error_type}: {self.failure.message}); "
                f"check CellResult.ok / SweepResult.failures before "
                f"reading outcome channels")
        if self.execution is None:
            raise ReproError(f"cell {self.key!r} was not simulated")
        return self.execution.success_rate

    @property
    def mitigated_success(self) -> float:
        """The strategy's zero-noise/corrected success estimate."""
        if self.mitigation is None:
            raise ReproError(f"cell {self.key!r} was not mitigated")
        return self.mitigation.mitigated_success


@dataclass
class SweepResult:
    """All cell results of one sweep, in grid order, plus cache stats.

    Attributes:
        results: One :class:`CellResult` per input cell, same order.
        compile_stats: Aggregated compile-cache counters.
        trace_stats: Aggregated trace-cache counters.
        stage_stats: Aggregated stage-cache counters (per-pass artifact
            reuse inside whole-program compile misses).
        disk_stats: This sweep's disk-store traffic per kind
            (``"compile"``/``"stage"``/``"trace"``/``"cell"`` →
            :class:`~repro.runtime.diskcache.StoreStats`), empty unless
            the compile cache has a store (``cache_dir=``, or a
            ``compile_cache`` built on one). Pool workers' counters are
            merged in.
        wall_time: End-to-end sweep seconds.
        workers: Pool size used (0 = in-process serial).
        resumed: Cells served from the checkpoint journal instead of
            executed (``resume=True``).
    """

    results: List[CellResult]
    compile_stats: CacheStats
    trace_stats: CacheStats
    stage_stats: CacheStats = field(default_factory=CacheStats)
    disk_stats: Dict[str, StoreStats] = field(default_factory=dict)
    wall_time: float = 0.0
    workers: int = 0
    resumed: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[CellFailure]:
        """Failure records of every failed cell, in grid order."""
        return [r.failure for r in self.results
                if r is not None and r.failure is not None]

    @property
    def ok(self) -> bool:
        """Whether every cell completed."""
        return not self.failures

    def failure_report(self) -> str:
        """Human-readable report of every failed cell (empty string
        when the sweep completed cleanly)."""
        failures = self.failures
        if not failures:
            return ""
        lines = [f"{len(failures)}/{len(self.results)} cells failed:"]
        lines.extend("  " + failure.describe() for failure in failures)
        return "\n".join(lines)

    def by_key(self) -> Dict[Hashable, CellResult]:
        """Results indexed by cell key (keys must be unique)."""
        out: Dict[Hashable, CellResult] = {}
        for result in self.results:
            if result.key in out:
                raise ReproError(f"duplicate sweep cell key {result.key!r}")
            out[result.key] = result
        return out

    def summary(self) -> str:
        """Cache/throughput description (one line per storage layer)."""
        extras = ""
        if self.failures:
            extras += f", {len(self.failures)} failed"
        if self.resumed:
            extras += f", {self.resumed} resumed"
        text = (f"{len(self.results)} cells in {self.wall_time:.2f}s "
                f"(workers={self.workers}{extras}): compile cache "
                f"{self.compile_stats.hits}/{self.compile_stats.lookups} hit, "
                f"stage cache "
                f"{self.stage_stats.hits}/{self.stage_stats.lookups} hit, "
                f"trace cache "
                f"{self.trace_stats.hits}/{self.trace_stats.lookups} hit")
        if self.disk_stats:
            tiers = ", ".join(
                f"{kind} {stats.describe()}"
                for kind, stats in sorted(self.disk_stats.items()))
            text += f"\ndisk store: {tiers}"
        return text


def run_cell(cell: SweepCell, compile_cache: CompileCache,
             trace_cache: TraceCache) -> CellResult:
    """Execute one cell against the given caches.

    Every tier is keyed by calibration content (see
    :mod:`repro.runtime.cache`), so cells of a mixed-device grid share
    the cache objects and an entry only when their snapshots are equal.
    """
    compiled, compile_hit = compile_cache.get_or_compile(
        cell.circuit, cell.calibration, cell.options)
    execution = None
    trace_hit = False
    mitigation = None
    if cell.simulate:
        hits_before = trace_cache.stats.hits
        execution = execute(compiled, cell.calibration, trials=cell.trials,
                            seed=cell.seed, expected=cell.expected,
                            engine=cell.engine, trace_cache=trace_cache)
        trace_hit = trace_cache.stats.hits > hits_before
        if cell.mitigation is not None:
            # Imported here, not at module top: the mitigation package
            # depends on the simulator/compiler layers this module also
            # feeds, and the strategy types are only needed when a grid
            # actually uses the axis.
            from repro.mitigation.strategy import MitigationContext

            context = MitigationContext(
                compiled=compiled, calibration=cell.calibration,
                baseline=execution, circuit=cell.circuit,
                options=cell.options, trials=cell.trials, seed=cell.seed,
                expected=cell.expected, engine=cell.engine,
                trace_cache=trace_cache,
                stage_cache=compile_cache.stages,
                tables=compile_cache.tables_for(cell.calibration))
            mitigation = cell.mitigation.mitigate(context)
    return CellResult(key=cell.key, compiled=compiled, execution=execution,
                      compile_cache_hit=compile_hit,
                      trace_cache_hit=trace_hit,
                      mitigation=mitigation)


def run_cell_guarded(index: int, cell: SweepCell,
                     compile_cache: CompileCache, trace_cache: TraceCache,
                     faults=None, attempts: int = 0, journal=None,
                     in_worker: bool = False,
                     capture: bool = True) -> CellResult:
    """Execute one cell with failure isolation, journaling, and fault
    hooks — the supervised runtime's per-cell entry point (both the
    serial path and every pool worker run cells through it).

    An exception inside the cell is captured as a
    :class:`CellFailure`-carrying result instead of propagating
    (``capture=False`` — strict serial mode — restores propagation).
    In-cell exceptions are deterministic (a cell's result is a pure
    function of the cell), so they are never retried. Successful
    results are journaled under the cell's fingerprint when a
    *journal* is given, before any injected journal corruption fires.
    ``KeyboardInterrupt`` always propagates: completed cells are
    already journaled, which is exactly what ``resume=True`` needs.
    """
    try:
        if faults is not None:
            faults.before_cell(index, attempts=attempts,
                               in_worker=in_worker)
        result = run_cell(cell, compile_cache, trace_cache)
    except Exception as exc:
        if not capture:
            raise
        return CellResult(key=cell.key,
                          failure=CellFailure.from_exception(
                              index, cell.key, exc, attempts=attempts + 1,
                              cell=cell))
    if journal is not None:
        fingerprint = cell_fingerprint(cell)
        journal.record(fingerprint, result)
        if faults is not None:
            faults.after_journal(index, journal, fingerprint)
    return result


def _partition(cells: Sequence[SweepCell], workers: int,
               indexes: Optional[Sequence[int]] = None
               ) -> List[List[Tuple[int, SweepCell]]]:
    """Split cells into per-worker batches along mapping-prefix groups,
    grouped by machine first.

    Whole groups (cells sharing a mapping-prefix key — which includes
    all cells sharing a full compile key) go to one worker, so each
    distinct configuration compiles exactly once somewhere and each
    distinct mapping is solved exactly once somewhere.

    The dealing unit depends on the grid's machine diversity:

    * **At least as many machines as batches** — whole machines are
      dealt, largest first, onto the lightest batch. Every worker sees
      each of its devices exactly once, so the per-calibration
      :class:`~repro.hardware.ReliabilityTables` memo is built once
      per device total (the "same grid per device" sweep lands each
      device on one worker). The granularity tradeoff mirrors the
      whole-group one: imbalance is bounded by one machine's cell
      count.
    * **Fewer machines than batches** — machines must be split for the
      pool to be used at all, so individual prefix groups are dealt
      largest-first onto the lightest batch (ties between equally
      loaded batches prefer one already holding the group's machine,
      then the lowest index); a device's tables may then be rebuilt by
      several workers — the price of width. Single-device grids take
      this path and partition exactly as before the machine axis
      existed.

    Both regimes are deterministic at any worker count, and hit counts
    are worker-count-independent either way because groups never split.
    """
    if indexes is None:
        indexes = range(len(cells))
    groups: Dict[PrefixKey, List[Tuple[int, SweepCell]]] = {}
    per_machine: Dict[str, List[List[Tuple[int, SweepCell]]]] = {}
    machine_first: Dict[str, int] = {}
    for index, cell in zip(indexes, cells):
        prefix = cell.prefix_key()
        group = groups.get(prefix)
        if group is None:
            # A group belongs to its first cell's machine, so content-
            # equal snapshots of differently named backends share it.
            group = groups[prefix] = []
            machine = cell.machine_key()
            per_machine.setdefault(machine, []).append(group)
            machine_first.setdefault(machine, index)
        group.append((index, cell))
    machine_totals = {machine: sum(len(g) for g in machine_groups)
                      for machine, machine_groups in per_machine.items()}
    machines = sorted(per_machine,
                      key=lambda m: (-machine_totals[m], machine_first[m]))
    batches: List[List[Tuple[int, SweepCell]]] = \
        [[] for _ in range(min(workers, len(groups)))]
    batch_machines: List[set] = [set() for _ in batches]

    def lightest(machine: str) -> int:
        return min(range(len(batches)),
                   key=lambda b: (len(batches[b]),
                                  machine not in batch_machines[b], b))

    for machine in machines:
        machine_groups = sorted(per_machine[machine],
                                key=lambda g: (-len(g), g[0][0]))
        if len(machines) >= len(batches):
            target = lightest(machine)
            for group in machine_groups:
                batches[target].extend(group)
            batch_machines[target].add(machine)
        else:
            for group in machine_groups:
                target = lightest(machine)
                batches[target].extend(group)
                batch_machines[target].add(machine)
    return [b for b in batches if b]


def _merge_disk_stats(into: Dict[str, StoreStats],
                      extra: Dict[str, StoreStats]) -> None:
    for kind, stats in extra.items():
        if kind in into:
            into[kind].merge(stats)
        else:
            into[kind] = stats


def run_sweep(cells: Sequence[SweepCell], workers: int = 0,
              compile_cache: Optional[CompileCache] = None,
              trace_cache: Optional[TraceCache] = None,
              cache_dir=None, strict: bool = False, resume: bool = False,
              max_retries: int = 2,
              batch_timeout: Optional[float] = None,
              faults=None) -> SweepResult:
    """Execute a sweep grid, serially or across a supervised process
    pool, with per-cell failure isolation.

    A failing cell no longer aborts the grid: its exception (or its
    worker's death) is captured as a :class:`CellFailure` on the
    cell's result, and the sweep returns every surviving cell plus a
    failure report (:meth:`SweepResult.failure_report`). Surviving
    cells are bit-identical to a fault-free run — each cell's result
    is a pure function of the cell, so isolation, retries, and
    resubmission cannot perturb them.

    Args:
        cells: The grid. Order is preserved in the result. An empty
            grid returns a well-formed empty result.
        workers: ``0`` or ``1`` runs in-process; ``>= 2`` fans compile-key
            groups out over that many supervised worker processes
            (worker death and stuck workers are recovered per batch,
            see :mod:`repro.runtime.pool`).
        compile_cache: Optional shared cache — pass one to accumulate
            compilations across several sweeps (e.g. chained
            experiments on the same snapshot). Its in-memory tiers
            serve the serial path only (object caches don't cross the
            process boundary: pool workers build their own), but its
            :attr:`~repro.runtime.cache.CompileCache.store`, when it
            has one, is every tier's disk store on both paths: pool
            workers open the same root, the serial trace tier shares
            it, and its journal serves ``resume``.
        trace_cache: Optional shared trace cache for the serial path
            (default: a fresh one on the compile cache's store).
        cache_dir: Optional store root (:mod:`repro.runtime.diskcache`)
            for a fresh ``CompileCache(DiskStore(cache_dir))``:
            compilations, stage artifacts and lowered traces survive
            the process and are shared with other sweeps, pool workers
            included. Also enables the checkpoint journal: every
            completed cell is recorded as it finishes, so a crashed or
            interrupted sweep can be resumed. Ignored when an explicit
            ``compile_cache`` is supplied.
        strict: Restore raise-on-first-error: the serial path
            re-raises the failing cell's exception immediately; the
            parallel path raises
            :class:`~repro.exceptions.CellExecutionError` carrying the
            failure report.
        resume: Serve cells already present in the checkpoint journal
            (content-addressed by :func:`cell_fingerprint`) instead of
            re-executing them — bit-identical by construction, since
            the journal stores the exact result an uninterrupted run
            would have produced. Requires a disk store (``cache_dir``,
            or a ``compile_cache`` built on one).
        max_retries: Worker-death retries charged per cell before the
            suspect cell is quarantined as failed (parallel path).
        batch_timeout: Soft seconds-without-progress limit per worker;
            the watchdog kills and resubmits a worker that exceeds it
            (``None`` disables).
        faults: Optional :class:`~repro.runtime.faults.FaultPlan`
            (inert unless ``REPRO_FAULTS`` is set).

    Returns:
        :class:`SweepResult` with per-cell results in input order.

    Raises:
        ValueError: On out-of-range supervision knobs — negative
            ``workers``, negative ``max_retries``, or a non-positive
            ``batch_timeout`` — rather than handing the pool an
            undefined policy.
    """
    if workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = in-process serial), got {workers}")
    if max_retries < 0:
        raise ValueError(
            f"max_retries must be >= 0 (0 = quarantine on the first "
            f"worker death), got {max_retries}")
    if batch_timeout is not None and batch_timeout <= 0:
        raise ValueError(
            f"batch_timeout must be positive seconds (or None to "
            f"disable the watchdog), got {batch_timeout}")
    cells = list(cells)
    start = time.perf_counter()
    if not cells:
        return SweepResult(results=[], compile_stats=CacheStats(),
                           trace_stats=CacheStats(),
                           wall_time=time.perf_counter() - start,
                           workers=0)
    if compile_cache is None:
        compile_cache = CompileCache(
            DiskStore(cache_dir) if cache_dir is not None else None)
    journal = compile_cache.journal
    # Snapshot-and-diff so a reused store's cumulative disk counters
    # don't bleed an earlier sweep's traffic into this result.
    # Taken before the resume lookups, so journal hits are visible in
    # the sweep's disk stats (the "cell" tier pins resume behavior).
    disk_before = compile_cache.disk_stats()

    todo: List[Tuple[int, SweepCell]] = list(enumerate(cells))
    results: List[Optional[CellResult]] = [None] * len(cells)
    resumed = 0
    if resume:
        if journal is None:
            raise ReproError(
                "resume=True needs the checkpoint journal, which lives "
                "in the disk store: pass cache_dir= (or a "
                "CompileCache(DiskStore(...)))")
        remaining: List[Tuple[int, SweepCell]] = []
        for index, cell in todo:
            stored = journal.load(cell_fingerprint(cell))
            if stored is not None:
                # The fingerprint leaves the key out, so the stored
                # result may carry another content-equal cell's key.
                results[index] = replace(stored, key=cell.key, resumed=True)
                resumed += 1
            else:
                remaining.append((index, cell))
        todo = remaining

    def diff_disk() -> Dict[str, StoreStats]:
        return {kind: (stats.minus(disk_before[kind])
                       if kind in disk_before else stats)
                for kind, stats in compile_cache.disk_stats().items()}

    def finalize(sweep: SweepResult) -> SweepResult:
        if strict and sweep.failures:
            raise CellExecutionError(sweep.failure_report())
        return sweep

    if workers >= 2 and len(todo) > 1:
        batches = _partition([cell for _, cell in todo], workers,
                             indexes=[index for index, _ in todo])
        if len(batches) >= 2:
            # Imported here, not at module top: pool's worker entry
            # point imports this module back (lazily) for run_cell.
            from repro.runtime.pool import run_batches

            indexed, compile_stats, trace_stats, stage_stats, disk_stats = \
                run_batches(batches, workers, store=compile_cache.store,
                            faults=faults, max_retries=max_retries,
                            batch_timeout=batch_timeout)
            for index, result in indexed:
                results[index] = result
            # The parent's own disk traffic (resume journal lookups)
            # joins the workers' merged counters.
            _merge_disk_stats(disk_stats, diff_disk())
            return finalize(SweepResult(
                results=results, compile_stats=compile_stats,
                trace_stats=trace_stats, stage_stats=stage_stats,
                disk_stats=disk_stats,
                wall_time=time.perf_counter() - start,
                workers=len(batches), resumed=resumed))
        # A single compile-key group has no parallelism to exploit:
        # the in-process path below serves it without fork overhead.

    if trace_cache is None:
        trace_cache = TraceCache(compile_cache.store)
    for index, cell in todo:
        results[index] = run_cell_guarded(
            index, cell, compile_cache, trace_cache, faults=faults,
            journal=journal, capture=not strict)
    return finalize(SweepResult(
        results=results, compile_stats=compile_cache.stats,
        trace_stats=trace_cache.stats,
        stage_stats=compile_cache.stages.stats, disk_stats=diff_disk(),
        wall_time=time.perf_counter() - start, workers=0,
        resumed=resumed))
