"""Persistent on-disk compile/stage cache.

The in-process caches of :mod:`repro.runtime.cache` die with the
process, so every CLI invocation used to recompile from scratch. This
module layers a small **content-addressed directory store** underneath
them: compiled programs and pipeline stage artifacts are pickled into
``<cache-dir>/compile/`` and ``<cache-dir>/stage/`` under the sha256 of
their content key, so a repeated ``repro run``/``repro sweep``/``repro
mitigate`` (or a mitigation sweep's folded pipeline variants) reuses
compilations across processes.

Design points:

* **Content addressing** — the filename *is* the hashed content key
  (circuit fingerprint x calibration id x options fingerprint for
  whole programs; the pipeline's stage-prefix chain key for stage
  artifacts), so a different *input* is always a different file. Keys
  cover inputs, not compiler code, so the store layout is additionally
  namespaced by a digest of the installed package's source: entries
  written by one version of the code are invisible to an edited one,
  rather than served stale after a pass's behavior changes.
* **Eviction-free with an integrity check on load** — the store never
  deletes; every entry embeds the sha256 of its pickled payload plus
  the full (unhashed) content key, and a load that fails either check
  (torn write, bit rot, hash collision) is treated as a miss and
  recompiled, never trusted.
* **Concurrency-safe writes** — entries are written to a temp file and
  published with an atomic :func:`os.replace`, so parallel sweep
  workers sharing one directory race benignly (last writer wins with
  an identical artifact).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional

import repro
from repro.runtime.cache import (CompileCache, CompileKey, StageCache,
                                 TraceCache)

#: Consecutive failed writes after which a store flips to memory-only.
DEGRADE_AFTER = 3


@dataclass
class StoreStats:
    """Per-tier counters of one persistent store kind.

    Counts only the *disk* tier's traffic: a ``load`` is attempted
    only after the in-memory tier missed, so ``hits`` here are
    compilations served across process boundaries (and ``misses``
    are first-ever computations or integrity-check rejections).
    ``write_errors`` counts failed publishes (full/read-only disk);
    ``degraded`` reports the owning store having given up on the
    filesystem entirely (see :attr:`DiskStore.degraded`), and
    ``redeemed`` how many times it *recovered* — a successful
    :meth:`DiskStore.redeem` probe flipped it back to persistent mode
    after a transient outage (long-lived servers retry periodically).
    """

    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    write_errors: int = 0
    degraded: bool = False
    redeemed: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def merge(self, other: "StoreStats") -> None:
        """Fold another counter (e.g. a pool worker's) into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.write_errors += other.write_errors
        self.degraded = self.degraded or other.degraded
        # Like ``degraded``, redemption is store *state* stamped onto
        # every tier's snapshot, not per-tier traffic: merging views of
        # the same store must not multiply-count it.
        self.redeemed = max(self.redeemed, other.redeemed)

    def minus(self, baseline: "StoreStats") -> "StoreStats":
        """The traffic since *baseline* (an earlier snapshot of the
        same counter) — how a sweep isolates its own share of a reused
        cache's cumulative totals. ``degraded`` and ``redeemed`` are
        current state, not traffic, and carry through undiffed."""
        return StoreStats(hits=self.hits - baseline.hits,
                          misses=self.misses - baseline.misses,
                          bytes_read=self.bytes_read - baseline.bytes_read,
                          bytes_written=self.bytes_written
                          - baseline.bytes_written,
                          write_errors=self.write_errors
                          - baseline.write_errors,
                          degraded=self.degraded, redeemed=self.redeemed)

    def describe(self) -> str:
        """Compact ``hits/lookups hit, read/written`` rendering."""
        text = (f"{self.hits}/{self.lookups} hit, "
                f"{_format_bytes(self.bytes_read)} read, "
                f"{_format_bytes(self.bytes_written)} written")
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        if self.degraded:
            text += ", DEGRADED (memory-only)"
        if self.redeemed:
            text += f", redeemed x{self.redeemed}"
        return text


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}B" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{n}B"  # pragma: no cover — unreachable

#: Entry-format tag; bump on layout changes.
_FORMAT = "v1"

_layout_cache: Optional[str] = None


def _layout() -> str:
    """Store namespace, part of every entry path.

    Content keys hash a compilation's *inputs*, not the compiler's
    code, so the namespace carries a digest of the installed package's
    source: editing any ``repro`` module moves the whole store to a
    fresh directory rather than serving artifacts computed by old
    code. Deliberately conservative — a docstring edit also
    invalidates — because a stale compiled program is silent and a
    recompile is cheap. Computed once per process.
    """
    global _layout_cache
    if _layout_cache is None:
        hasher = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(path.read_bytes())
        _layout_cache = f"{_FORMAT}-{hasher.hexdigest()[:16]}"
    return _layout_cache


class DiskStore:
    """Content-addressed pickle store under one root directory.

    Args:
        root: Cache directory (created on first write).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: Per-kind (``"compile"``/``"stage"``/``"cell"``) counters.
        self.stats: Dict[str, StoreStats] = {}
        #: True once repeated write failures flipped the store to
        #: memory-only mode (reads still work; writes are skipped).
        self.degraded = False
        #: Times :meth:`redeem` successfully lifted a degradation.
        self.redemptions = 0
        self._consecutive_write_failures = 0

    def stats_for(self, kind: str) -> StoreStats:
        stats = self.stats.get(kind)
        if stats is None:
            stats = self.stats[kind] = StoreStats()
        return stats

    def _path(self, kind: str, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.root / _layout() / kind / digest[:2] / digest

    def entry_path(self, kind: str, key: str) -> Path:
        """Where *key*'s entry lives on disk (it may not exist yet).

        Exposed for the fault-injection harness, which corrupts
        entries in place to prove loads degrade to recomputation.
        """
        return self._path(kind, key)

    def _note_write_failure(self, kind: str) -> None:
        """Account a failed publish; repeatedly failing writes flip
        the store to memory-only instead of hammering a dead disk on
        every artifact for the rest of the sweep."""
        self.stats_for(kind).write_errors += 1
        self._consecutive_write_failures += 1
        if (self._consecutive_write_failures >= DEGRADE_AFTER
                and not self.degraded):
            self.degraded = True
            warnings.warn(
                f"disk store {self.root} degraded to memory-only after "
                f"{self._consecutive_write_failures} consecutive write "
                f"failures (disk full or read-only?); compilations stay "
                f"cached in-process but will not persist",
                RuntimeWarning, stacklevel=4)

    def redeem(self) -> bool:
        """Attempt to lift a memory-only degradation.

        A degraded store never retries the filesystem on the hot path
        (every artifact write probing a dead disk is exactly what
        degradation exists to stop), but a *transient* outage — disk
        briefly full, NFS blip — would otherwise pin a long-lived
        server in memory-only mode forever. ``redeem`` is the explicit,
        cheap recovery probe: one small atomic write. On success the
        store returns to persistent mode with a fresh failure streak
        (and the recovery is surfaced as ``redeemed`` in every tier's
        :class:`StoreStats` snapshot); on failure the store stays
        degraded, silently — callers poll this at their own cadence
        (the compile service probes between batches).

        Returns True when the store is persistent again (including
        when it never degraded).
        """
        if not self.degraded:
            return True
        probe = self.root / _layout() / "redeem.probe"
        try:
            probe.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=probe.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(b"redeem-probe")
                os.replace(tmp, probe)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.degraded = False
        self._consecutive_write_failures = 0
        self.redemptions += 1
        return True

    def load_blob(self, kind: str, key: str) -> Optional[bytes]:
        """The stored raw payload for *key*, or ``None``.

        Missing entries, payloads whose embedded digest no longer
        matches, and entries recorded under a different full key
        (digest collision) all return ``None`` — the caller recomputes;
        nothing is ever served unverified. A returned payload counts as
        a hit even if the caller's decode subsequently rejects it.
        """
        stats = self.stats_for(kind)
        try:
            blob = self._path(kind, key).read_bytes()
        except OSError:
            stats.misses += 1
            return None
        stats.bytes_read += len(blob)
        digest, _, rest = blob.partition(b"\n")
        stored_key, _, payload = rest.partition(b"\n")
        if stored_key.decode("utf-8", errors="replace") != key:
            stats.misses += 1
            return None
        if hashlib.sha256(payload).hexdigest() != digest.decode(
                "ascii", errors="replace"):
            stats.misses += 1
            return None
        stats.hits += 1
        return payload

    def load(self, kind: str, key: str) -> Optional[object]:
        """The stored (pickled) object for *key*, or ``None``.

        On top of :meth:`load_blob`'s integrity checks, an unpicklable
        payload also loads as ``None`` (counted back as a miss)."""
        stats = self.stats_for(kind)
        payload = self.load_blob(kind, key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            stats.hits -= 1
            stats.misses += 1
            return None

    def store_blob(self, kind: str, key: str, payload: bytes) -> None:
        """Persist raw *payload* under *key* (atomic publish; errors
        ignored).

        A full disk degrades to in-memory caching rather than failing
        the sweep; after :data:`DEGRADE_AFTER` consecutive ``OSError``
        publishes the whole store flips to memory-only mode (warn-once
        ``RuntimeWarning``, surfaced in :class:`StoreStats`) instead of
        retrying the filesystem on every artifact.
        """
        if self.degraded:
            return
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            digest = hashlib.sha256(payload).hexdigest()
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(digest.encode("ascii"))
                    handle.write(b"\n")
                    handle.write(key.encode("utf-8"))
                    handle.write(b"\n")
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self._note_write_failure(kind)
            return
        self._consecutive_write_failures = 0
        self.stats_for(kind).bytes_written += \
            len(payload) + len(digest) + len(key) + 2

    def store(self, kind: str, key: str, obj: object) -> None:
        """Pickle and persist *obj* under *key* (see :meth:`store_blob`;
        an unpicklable artifact is silently kept memory-only)."""
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        self.store_blob(kind, key, payload)


def _compile_key_string(key: CompileKey) -> str:
    return "|".join(key)


class ResultJournal:
    """Checkpoint journal of completed sweep-cell results.

    A thin view over a :class:`DiskStore`'s ``"cell"`` kind: completed
    :class:`~repro.runtime.sweep.CellResult` objects are recorded
    content-addressed by their cell's fingerprint
    (:func:`~repro.runtime.sweep.cell_fingerprint`), so
    ``run_sweep(resume=True)`` can skip already-completed cells after a
    crash, a worker loss, or Ctrl-C. The store's integrity check makes
    corrupt entries load as ``None`` — resume then degrades to
    re-executing the cell, never to trusting a torn write. Failed
    cells are deliberately not journaled: a resumed sweep re-attempts
    them.
    """

    KIND = "cell"

    def __init__(self, store: DiskStore) -> None:
        self._store = store

    @property
    def stats(self) -> StoreStats:
        """The journal's disk-tier counters (hits = resumed cells)."""
        return self._store.stats_for(self.KIND)

    def load(self, fingerprint: str):
        """The journaled result for a cell fingerprint, or ``None``."""
        return self._store.load(self.KIND, fingerprint)

    def record(self, fingerprint: str, result) -> None:
        """Journal one completed cell (atomic, idempotent)."""
        self._store.store(self.KIND, fingerprint, result)

    def entry_path(self, fingerprint: str) -> Path:
        """The entry's on-disk path (fault-injection corruption hook)."""
        return self._store.entry_path(self.KIND, fingerprint)


def make_compile_cache(cache_dir=None) -> CompileCache:
    """The one rule for building a compile cache from a ``cache_dir``.

    Used by the serial sweep path, every pool worker, and the CLI, so
    the three can't drift: ``None`` means a fresh in-memory cache, a
    path means the persistent store.
    """
    if cache_dir is None:
        return CompileCache()
    return PersistentCompileCache(cache_dir)


class PersistentStageCache(StageCache):
    """A :class:`StageCache` backed by a :class:`DiskStore`.

    Disk-served artifacts count as hits (the expensive pass run was
    avoided) and are promoted into the in-memory tier for the rest of
    the process.
    """

    def __init__(self, store: DiskStore) -> None:
        super().__init__()
        self._store = store

    def _lookup(self, key: str):
        artifact = self._artifacts.get(key)
        if artifact is None:
            artifact = self._store.load("stage", key)
            if artifact is not None:
                self._artifacts[key] = artifact
        return artifact

    def put(self, key: str, artifact: object) -> None:
        super().put(key, artifact)
        self._store.store("stage", key, artifact)


class PersistentTraceCache(TraceCache):
    """A :class:`TraceCache` with an npz disk tier for lowered traces.

    Lowering a :class:`~repro.simulator.trace.ProgramTrace` includes a
    dense statevector simulation of the whole program (the ideal
    distribution), and on traces of at most
    :data:`~repro.simulator.batch.EXACT_MAX_QUBITS` qubits a dense pass
    for the exact outcome law the sampler draws counts from; for the
    repeated-trials sweeps they are the dominant per-cell cost after
    compilation. This tier serializes traces to compressed ``.npz``
    (flat arrays only — see ``ProgramTrace.to_arrays``; no pickle on
    the load path) with both dense members beside the site tables,
    keyed by the same content key the in-memory tier uses, so repeated
    invocations with ``--cache-dir`` skip straight to one multinomial
    draw per execution. A stored law that is not a probability vector
    over the trace's rendered codes loads as a miss.

    Only exact ``ProgramTrace`` instances go to disk: the stabilizer
    engine parks its own lowered objects in the same cache under the
    same key contract, and those (or any trace subclass) stay
    memory-only rather than risking a lossy round-trip.
    """

    KIND = "trace"

    def __init__(self, store: DiskStore) -> None:
        super().__init__()
        self._store = store

    def get(self, compiled, noise, calibration):
        trace = super().get(compiled, noise, calibration)
        if trace is not None:
            return trace
        key = self._key(compiled, noise, calibration)
        if key is None:
            return None
        blob = self._store.load_blob(self.KIND, repr(key))
        if blob is None:
            return None
        import io

        import numpy as np

        from repro.simulator.trace import ProgramTrace

        try:
            with np.load(io.BytesIO(blob), allow_pickle=False) as data:
                trace = ProgramTrace.from_arrays(dict(data))
        except Exception:
            return None  # malformed entry: treated as a miss, re-lowered
        self._traces[key] = trace
        return trace

    def put(self, compiled, noise, calibration, trace) -> None:
        super().put(compiled, noise, calibration, trace)
        from repro.simulator.trace import ProgramTrace

        if type(trace) is not ProgramTrace:
            return
        key = self._key(compiled, noise, calibration)
        if key is None:
            return
        import io

        import numpy as np

        buf = io.BytesIO()
        try:
            np.savez_compressed(buf, **trace.to_arrays())
        except Exception:
            return
        self._store.store_blob(self.KIND, repr(key), buf.getvalue())


def make_trace_cache(cache_dir=None, store: Optional[DiskStore] = None
                     ) -> TraceCache:
    """The one rule for building a trace cache from a ``cache_dir``.

    Mirrors :func:`make_compile_cache`: ``None`` means in-memory only,
    a path means the npz-backed persistent tier. Pass ``store`` to
    share an existing :class:`DiskStore` (and its degradation state /
    stats) instead of opening a second one on the same directory.
    """
    if store is not None:
        return PersistentTraceCache(store)
    if cache_dir is None:
        return TraceCache()
    return PersistentTraceCache(DiskStore(cache_dir))


class PersistentCompileCache(CompileCache):
    """A :class:`CompileCache` whose programs and stages persist on disk.

    Drop-in replacement accepted everywhere a ``CompileCache`` is
    (``run_sweep(compile_cache=...)``, ``run_cell``); the CLI builds one
    from ``--cache-dir``.

    Args:
        root: Cache directory, shared freely between processes.
    """

    def __init__(self, root) -> None:
        super().__init__()
        self._store = DiskStore(root)
        self.stages = PersistentStageCache(self._store)
        self.journal = ResultJournal(self._store)

    def redeem(self) -> bool:
        """Probe the shared store out of memory-only degradation
        (see :meth:`DiskStore.redeem`)."""
        return self._store.redeem()

    def disk_stats(self) -> Dict[str, StoreStats]:
        """Per-kind disk-tier counters of the shared store.

        Returned as a snapshot (copied counters, current ``degraded``
        state stamped on) of the cache's cumulative totals; callers
        reporting a bounded span (e.g.
        :func:`~repro.runtime.sweep.run_sweep`, whose result describes
        one sweep) take a snapshot before and after and diff with
        :meth:`StoreStats.minus`.
        """
        return {kind: replace(stats, degraded=self._store.degraded,
                              redeemed=self._store.redemptions)
                for kind, stats in self._store.stats.items()}

    def _lookup(self, key: CompileKey):
        program = super()._lookup(key)
        if program is None:
            program = self._store.load("compile", _compile_key_string(key))
            if program is not None:
                self._programs[key] = program
        return program

    def _insert(self, key: CompileKey, program) -> None:
        super()._insert(key, program)
        self._store.store("compile", _compile_key_string(key), program)
