"""The on-disk store behind the runtime's caches, and the cell journal.

Without a disk tier, the in-process caches of
:mod:`repro.runtime.cache` die with the process and every CLI
invocation recompiles from scratch. This module holds the small
**content-addressed directory store** each of them can take as an
optional disk tier: compiled programs, pipeline stage artifacts and
completed cell results are pickled, and lowered traces saved as flat
array records (:func:`repro.simulator.trace.pack_arrays`), under
``<cache-dir>/<namespace>/<kind>/`` and the sha256 of their content
key, so a repeated ``repro run``/``repro sweep``/``repro
mitigate`` (or a mitigation sweep's folded pipeline variants) reuses
them across processes. :class:`ResultJournal` is the store's view of
completed cells that ``resume=True`` serves.

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
  deletes; every entry embeds the sha256 of its payload plus
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
from repro.compiler.compile import format_bytes

#: Consecutive failed writes after which a store flips to memory-only.
DEGRADE_AFTER = 3


@dataclass
class StoreStats:
    """Per-tier counters of one persistent store kind.

    Counts only the *disk* tier's traffic: a ``load`` is attempted
    only after the in-memory tier missed, so ``hits`` here are
    compilations served across process boundaries (and ``misses``
    are first-ever computations or integrity-check rejections).
    ``bytes_read`` counts every entry file read, loads and the
    journal's pre-write checks (:meth:`DiskStore.holds`) alike; those
    checks count no hit and no miss.
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
                f"{format_bytes(self.bytes_read)} read, "
                f"{format_bytes(self.bytes_written)} written")
        if self.write_errors:
            text += f", {self.write_errors} write errors"
        if self.degraded:
            text += ", DEGRADED (memory-only)"
        if self.redeemed:
            text += f", redeemed x{self.redeemed}"
        return text


#: Entry-format tag; bump on layout changes (v2: traces are flat
#: array records, not ``.npz``).
_FORMAT = "v2"

_layout_cache: Optional[str] = None


def _layout() -> str:
    """Store namespace, part of every entry path.

    Content keys hash a compilation's *inputs*, not the compiler's
    code, so the namespace carries a digest of the installed package's
    source: editing any ``repro`` module moves the whole store to a
    fresh directory rather than serving artifacts computed by old
    code. Deliberately conservative — a docstring edit also
    invalidates — because a stale compiled program is silent and a
    recompile is cheap. Computed once per process; a store keeps the
    value it saw when it opened (:attr:`DiskStore.namespace`).
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
        #: The source digest every entry path carries, fixed when the
        #: store opens: a long-lived process keeps one namespace
        #: however the source changes after, and pool workers forked
        #: from it inherit the digest instead of hashing again.
        self.namespace = _layout()
        #: Per-kind (``"compile"``/``"stage"``/``"trace"``/``"cell"``)
        #: counters.
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

    def snapshot(self) -> Dict[str, StoreStats]:
        """Copies of the per-kind counters, the store's current
        ``degraded`` and ``redeemed`` state stamped on each."""
        return {kind: replace(stats, degraded=self.degraded,
                              redeemed=self.redemptions)
                for kind, stats in self.stats.items()}

    def _path(self, kind: str, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.root / self.namespace / kind / digest[:2] / digest

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
        probe = self.root / self.namespace / "redeem.probe"
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

    def _verified(self, kind: str, key: str) -> Optional[bytes]:
        """*key*'s payload if its entry exists and passes both checks,
        else ``None``; counts the bytes read and nothing else."""
        try:
            blob = self._path(kind, key).read_bytes()
        except OSError:
            return None
        self.stats_for(kind).bytes_read += len(blob)
        digest, _, rest = blob.partition(b"\n")
        stored_key, _, payload = rest.partition(b"\n")
        if stored_key.decode("utf-8", errors="replace") != key:
            return None
        if hashlib.sha256(payload).hexdigest() != digest.decode(
                "ascii", errors="replace"):
            return None
        return payload

    def load_blob(self, kind: str, key: str) -> Optional[bytes]:
        """The stored raw payload for *key*, or ``None``.

        Missing entries, payloads whose embedded digest no longer
        matches, and entries recorded under a different full key
        (digest collision) all return ``None`` — the caller recomputes;
        nothing is ever served unverified. A returned payload counts as
        a hit even if the caller's decode subsequently rejects it.
        """
        payload = self._verified(kind, key)
        stats = self.stats_for(kind)
        if payload is None:
            stats.misses += 1
        else:
            stats.hits += 1
        return payload

    def holds(self, kind: str, key: str) -> bool:
        """Whether *key*'s entry exists and passes :meth:`load_blob`'s
        digest and key checks. Reads the entry and counts its bytes as
        read, but counts no hit and no miss: it serves nothing."""
        return self._verified(kind, key) is not None

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
        self.store = store

    @property
    def stats(self) -> StoreStats:
        """The journal's disk-tier counters (hits = resumed cells)."""
        return self.store.stats_for(self.KIND)

    def load(self, fingerprint: str):
        """The journaled result for a cell fingerprint, or ``None``."""
        return self.store.load(self.KIND, fingerprint)

    def record(self, fingerprint: str, result) -> None:
        """Journal one completed cell (atomic, idempotent).

        A cell's result is a pure function of its fingerprint, so an
        entry that already passes the store's integrity check is left
        in place: a plain rerun of a journaled sweep rewrites nothing.
        A missing, torn or corrupt entry is written afresh."""
        if not self.store.holds(self.KIND, fingerprint):
            self.store.store(self.KIND, fingerprint, result)

    def entry_path(self, fingerprint: str) -> Path:
        """The entry's on-disk path (fault-injection corruption hook)."""
        return self.store.entry_path(self.KIND, fingerprint)
