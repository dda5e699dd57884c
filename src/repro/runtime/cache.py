"""Content-addressed caches underlying the sweep runtime.

Three cache layers, mirroring the expensive stages of a scenario cell:

* :class:`CompileCache` — compiled programs keyed by (circuit
  fingerprint, calibration content id, options fingerprint). A sweep
  grid that varies only seed or trial count pays compilation once per
  distinct configuration instead of once per cell. The cache also
  memoizes the :class:`~repro.hardware.ReliabilityTables` built for
  each calibration snapshot, which every compilation of that snapshot
  shares.
* :class:`StageCache` — individual pipeline-pass artifacts keyed by
  stage-prefix key (see :mod:`repro.compiler.pipeline`). Nested inside
  every :class:`CompileCache`: when a whole-program lookup misses, the
  pipeline still reuses any shared prefix — most importantly, cells
  that differ only in post-mapping knobs (routing policy, peephole,
  coherence handling) share one expensive SMT/greedy mapping artifact.
* :class:`TraceCache` — lowered
  :class:`~repro.simulator.trace.ProgramTrace` objects keyed by
  (compiled-program fingerprint, noise-model key). Every engine of
  :func:`repro.simulator.execute` consults it through the
  ``trace_cache`` hook, so re-executing the same compiled program (new
  seed, new shot count, another engine) skips the flat-array
  lowering.

Each tier is an in-process dictionary with an optional
:class:`~repro.runtime.diskcache.DiskStore` behind it: a lookup reads
memory, then the store, and a store hit is promoted into memory; a put
writes both. Without a store everything dies with the process. A
:class:`CompileCache` shares its store with its nested stage cache and
its checkpoint journal, and the sweep runtime hands the same store to
the trace tier and to every pool worker, so one ``cache_dir`` persists
all four. With or without a store, the parallel sweep path shares work
by scheduling: cells with the same mapping-prefix key are routed to the
same worker (see :mod:`repro.runtime.sweep`), which makes hit counts
deterministic and independent of the worker count.

Keys are content hashes, not object identities, so a cache can be
(re)used across harnesses: fig5 and fig7 both compiling the T-SMT*
baseline for BV4 on day 0 share one compilation. The machine enters
every key only as ``Calibration.content_id()`` (topology, every qubit
and edge record, label): each artifact is a pure function of (circuit,
calibration, options), so content-equal snapshots share entries
whichever backend produced them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_circuit,
    mapping_stage_fingerprint,
)
from repro.hardware import Calibration, ReliabilityTables
from repro.ir.circuit import Circuit
from repro.runtime.diskcache import DiskStore, ResultJournal, StoreStats
from repro.simulator import NoiseModel, noise_content_key
from repro.simulator.trace import ProgramTrace, pack_arrays, unpack_arrays

#: (circuit fingerprint, calibration content id, options fingerprint).
CompileKey = Tuple[str, str, str]

#: (circuit fingerprint, calibration content id, mapping fingerprint).
PrefixKey = Tuple[str, str, str]


def compile_key(circuit: Circuit, calibration: Calibration,
                options: CompilerOptions) -> CompileKey:
    """The content-addressed identity of one compilation."""
    return (circuit.fingerprint(), calibration.content_id(),
            options.fingerprint())


def mapping_prefix_key(circuit: Circuit, calibration: Calibration,
                       options: CompilerOptions) -> PrefixKey:
    """The content-addressed identity of one *mapping* computation.

    Strictly coarser than :func:`compile_key`: cells sharing a compile
    key always share a prefix key, and cells that differ only in
    post-mapping options share a prefix key without sharing a compile
    key — exactly the set that can reuse a mapping artifact through the
    stage cache.
    """
    return (circuit.fingerprint(), calibration.content_id(),
            mapping_stage_fingerprint(options))


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter (e.g. a worker's) into this one."""
        self.hits += other.hits
        self.misses += other.misses


class StageCache:
    """Memoizes individual pipeline-pass artifacts by prefix key.

    The key space is the stage-prefix chain of
    :meth:`repro.compiler.PassManager.run`: an artifact is addressed by
    everything that determined it (circuit, calibration, and the
    fingerprints of every pass up to and including its own), so lookups
    can never alias across option values that drive a pass differently.
    Artifacts are shared objects; treat them as immutable.

    Args:
        store: Optional disk tier (``"stage"`` kind). A disk-served
            artifact counts as a hit (the pass run was avoided) and is
            promoted into memory for the rest of the process.
    """

    def __init__(self, store: Optional[DiskStore] = None) -> None:
        self._artifacts: Dict[str, object] = {}
        self.store = store
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._artifacts)

    def get(self, key: str):
        """The cached artifact, or ``None`` (counted as a miss)."""
        artifact = self._artifacts.get(key)
        if artifact is None and self.store is not None:
            artifact = self.store.load("stage", key)
            if artifact is not None:
                self._artifacts[key] = artifact
        if artifact is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return artifact

    def put(self, key: str, artifact: object) -> None:
        self._artifacts[key] = artifact
        if self.store is not None:
            self.store.store("stage", key, artifact)


class CompileCache:
    """Memoizes ``compile_circuit`` results by content key.

    Misses compile through the nested :class:`StageCache`, so even the
    first compilation of a new option value reuses any pipeline prefix
    (typically the mapping stage) computed for a sibling configuration.

    Args:
        store: Optional disk tier, shared freely between processes:
            whole programs persist under its ``"compile"`` kind, the
            nested stage cache under ``"stage"``, and completed cells
            in its checkpoint :attr:`journal`.
    """

    def __init__(self, store: Optional[DiskStore] = None) -> None:
        self.store = store
        self._programs: Dict[CompileKey, CompiledProgram] = {}
        self._tables: Dict[str, ReliabilityTables] = {}
        self.stats = CacheStats()
        self.stages = StageCache(store)
        #: Checkpoint journal of completed cell results, ``None``
        #: without a store; the sweep runtime journals and resumes only
        #: with one.
        self.journal = ResultJournal(store) if store is not None else None

    def __len__(self) -> int:
        return len(self._programs)

    def tables_for(self, calibration: Calibration) -> ReliabilityTables:
        """The (shared) routing tables for a calibration snapshot."""
        key = calibration.content_id()
        tables = self._tables.get(key)
        if tables is None:
            tables = self._tables[key] = ReliabilityTables(calibration)
        return tables

    def disk_stats(self) -> Dict[str, StoreStats]:
        """Per-kind disk-tier counters of the store (empty without one).

        A snapshot (see :meth:`~repro.runtime.diskcache.DiskStore.snapshot`)
        of the store's cumulative totals; callers reporting a bounded
        span (e.g. :func:`~repro.runtime.sweep.run_sweep`, whose result
        describes one sweep) take one before and after and diff with
        :meth:`~repro.runtime.diskcache.StoreStats.minus`.
        """
        return {} if self.store is None else self.store.snapshot()

    def redeem(self) -> bool:
        """Probe the store out of memory-only degradation (see
        :meth:`~repro.runtime.diskcache.DiskStore.redeem`); trivially
        healthy without one. Long-lived callers (the compile service)
        poll this between batches."""
        return self.store is None or self.store.redeem()

    def get_or_compile(self, circuit: Circuit, calibration: Calibration,
                       options: CompilerOptions
                       ) -> Tuple[CompiledProgram, bool]:
        """Return the compiled program and whether it was a cache hit.

        Hits return a copy flagged ``cache_hit=True`` whose
        ``compile_time`` is zero — the stored program's wall clock
        describes the original compilation, and replaying it would make
        sweep timing reports count the same work once per cell.
        """
        key = compile_key(circuit, calibration, options)
        program = self._programs.get(key)
        if program is None and self.store is not None:
            program = self.store.load("compile", "|".join(key))
            if program is not None:
                self._programs[key] = program
        if program is not None:
            self.stats.hits += 1
            served = replace(program, compile_time=0.0, cache_hit=True)
            if "_fingerprint" in program.__dict__:  # carry the memo over
                served.__dict__["_fingerprint"] = \
                    program.__dict__["_fingerprint"]
            return served, True
        self.stats.misses += 1
        program = compile_circuit(circuit, calibration, options,
                                  tables=self.tables_for(calibration),
                                  stage_cache=self.stages)
        self._programs[key] = program
        if self.store is not None:
            self.store.store("compile", "|".join(key), program)
        return program, False


class TraceCache:
    """Memoizes :class:`ProgramTrace` lowerings, which every engine
    samples.

    Passed to :func:`repro.simulator.execute` via its ``trace_cache``
    argument. Only plain :class:`NoiseModel` instances (whose behavior
    is fully determined by calibration content and the mechanism flags)
    are cached; exotic subclasses bypass the cache unless they provide
    their own ``trace_key()`` describing their full configuration.

    Args:
        store: Optional disk tier (``"trace"`` kind): each trace is
            saved as one flat record of its arrays
            (:func:`~repro.simulator.trace.pack_arrays` over
            ``ProgramTrace.to_arrays``, no pickle on the load path)
            with its ideal distribution and, on small traces, exact
            outcome law, so a later process skips lowering and both
            dense passes. A disk-served trace counts as a hit (the
            lowering was avoided) and is promoted into memory; an entry
            that fails :func:`~repro.simulator.trace.unpack_arrays` or
            :meth:`ProgramTrace.from_arrays`' checks is a miss. Only
            exact ``ProgramTrace`` instances are stored: trace
            subclasses stay memory-only rather than risk a lossy
            round-trip.
    """

    def __init__(self, store: Optional[DiskStore] = None) -> None:
        self._traces: Dict[tuple, object] = {}
        self.store = store
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._traces)

    @staticmethod
    def _key(compiled: CompiledProgram, noise: NoiseModel,
             calibration: Calibration) -> Optional[tuple]:
        noise_key = noise_content_key(noise)
        if noise_key is None:
            # Unknown subclass state (or an explicit trace_key() of
            # None): don't risk stale traces.
            return None
        # The execute-time calibration is keyed separately from the
        # noise model's: its topology shapes the trace's crosstalk
        # sites, and execute() supports running under a different
        # snapshot than the noise model was built on.
        return (compiled.fingerprint(), calibration.content_id(), noise_key)

    def get(self, compiled: CompiledProgram, noise: NoiseModel,
            calibration: Calibration):
        """The cached trace, or ``None`` (counted as a miss)."""
        key = self._key(compiled, noise, calibration)
        if key is None:
            return None
        trace = self._traces.get(key)
        if trace is None and self.store is not None:
            trace = self._load(key)
        if trace is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return trace

    def _load(self, key: tuple):
        """The store's trace under *key*, promoted into memory, or
        ``None``."""
        blob = self.store.load_blob("trace", repr(key))
        if blob is None:
            return None
        try:
            trace = ProgramTrace.from_arrays(unpack_arrays(blob))
        except Exception:
            return None  # malformed entry: treated as a miss, re-lowered
        self._traces[key] = trace
        return trace

    def put(self, compiled: CompiledProgram, noise: NoiseModel,
            calibration: Calibration, trace) -> None:
        key = self._key(compiled, noise, calibration)
        if key is None:
            return
        self._traces[key] = trace
        if self.store is None or type(trace) is not ProgramTrace:
            return
        try:
            record = pack_arrays(trace.to_arrays())
        except Exception:
            return
        self.store.store_blob("trace", repr(key), record)
