"""Supervised process-pool execution of sweep-cell batches.

The sweep runtime partitions a grid into batches of (index, cell)
pairs — one batch per worker, with all cells sharing a mapping-prefix
key placed in the same batch — and this module fans the batches out
over supervised ``multiprocessing`` processes. Each worker builds its
own :class:`~repro.runtime.cache.CompileCache`/
:class:`~repro.runtime.cache.TraceCache` pair (on the parent's disk
store root, when it has one), streams back one message per completed
cell plus a final cache-counter message, and the parent merges
everything.

Unlike the bare ``pool.map`` this replaced, the dispatch loop treats
worker failure as the common case:

* **Worker death** (``os._exit``, segfault, OOM kill) loses only the
  dead worker's *unfinished* cells — completed cells were already
  streamed back (and journaled, when a disk store is open). The
  unfinished remainder is resubmitted to a fresh worker.
* **Poison cells** are bisected by construction: cells run in batch
  order, so the first unfinished cell is the prime suspect. Each death
  charges an attempt to that cell; past ``max_retries`` it is
  quarantined as a :class:`~repro.runtime.sweep.CellFailure` (stage
  ``"worker"``/``"timeout"``) and the rest of the batch is resubmitted
  without it — one bad cell can no longer pin down its whole batch,
  let alone the sweep.
* **Stuck workers** are killed by a watchdog after ``batch_timeout``
  seconds without progress and handled exactly like a death.

Recovery cannot perturb results: every cell seeds its own RNG, so a
resubmitted cell is bit-identical wherever and whenever it runs. Cache
*counters* under faults may differ from a fault-free run (a dead
worker's counters die with it; a fresh worker recompiles), but in the
fault-free case the dispatch is behaviorally identical to the old
``pool.map`` — same batches, same per-worker caches, same merged
stats.

The ``fork`` start method is preferred (workers inherit the already
imported interpreter state, so startup is milliseconds); platforms
without it fall back to the default context, which works because the
worker entry point is a top-level function and every object crossing
the pipe (cells in, results out) is picklable.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.cache import CacheStats, CompileCache, TraceCache
from repro.runtime.diskcache import DiskStore

#: One unit of pool work: the cell plus its position in the grid.
IndexedCell = Tuple[int, "SweepCell"]  # noqa: F821 — see runtime.sweep

#: Supervisor poll granularity (seconds) — the latency of noticing a
#: silent worker death; message arrival wakes the loop immediately.
_POLL_SECONDS = 0.1


def _worker_main(conn, batch: Sequence[IndexedCell],
                 attempts: Dict[int, int], store_root, faults) -> None:
    """Worker entry point: run one batch, streaming results back.

    Sends ``("cell", index, CellResult)`` after each cell and a final
    ``("stats", compile, trace, stage, disk)`` message — the parent
    treats the stats message as the clean-completion marker. With
    *store_root*, every tier (compile, stage, npz trace) is backed by
    a store on that directory (writes are atomic, so workers race
    benignly) and every completed cell is checkpoint-journaled.
    """
    from repro.runtime.sweep import run_cell_guarded

    try:
        compile_cache = CompileCache(
            DiskStore(store_root) if store_root is not None else None)
        trace_cache = TraceCache(compile_cache.store)
        for index, cell in batch:
            result = run_cell_guarded(
                index, cell, compile_cache, trace_cache, faults=faults,
                attempts=attempts.get(index, 0),
                journal=compile_cache.journal, in_worker=True)
            conn.send(("cell", index, result))
        conn.send(("stats", compile_cache.stats, trace_cache.stats,
                   compile_cache.stages.stats, compile_cache.disk_stats()))
    except KeyboardInterrupt:
        pass  # the parent is unwinding and will reap us
    finally:
        conn.close()


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context used for sweep pools."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


class _Supervised:
    """Parent-side bookkeeping for one in-flight worker."""

    __slots__ = ("process", "conn", "batch", "received", "last_progress",
                 "completed_ok", "timed_out", "eof")

    def __init__(self, process, conn, batch: List[IndexedCell]) -> None:
        self.process = process
        self.conn = conn
        self.batch = batch
        self.received = 0          # cells whose results arrived
        self.last_progress = time.monotonic()
        self.completed_ok = False  # final stats message arrived
        self.timed_out = False     # killed by the watchdog
        self.eof = False           # pipe closed by the worker


def run_batches(batches: Sequence[Sequence[IndexedCell]], workers: int,
                store: Optional[DiskStore] = None, faults=None,
                max_retries: int = 2, batch_timeout: Optional[float] = None
                ) -> Tuple[list, CacheStats, CacheStats, CacheStats, dict]:
    """Run cell batches across *workers* supervised processes.

    Args:
        batches: Pre-partitioned (index, cell) groups; cells sharing a
            mapping-prefix key (hence also cells sharing a compile key)
            must sit in the same batch for the caches to behave
            deterministically.
        workers: Pool size; capped at the number of batches.
        store: The parent's optional disk store; each worker opens
            one on the same root for every cache tier (see
            :mod:`repro.runtime.diskcache`), which also enables per-cell
            checkpoint journaling.
        faults: Optional :class:`~repro.runtime.faults.FaultPlan`
            shipped to every worker (inert unless ``REPRO_FAULTS`` is
            set).
        max_retries: Worker-death retries charged to the first
            unfinished cell of a lost batch before that cell is
            quarantined as failed.
        batch_timeout: Seconds without progress before the watchdog
            kills a worker and resubmits its unfinished cells
            (``None`` disables). Must comfortably exceed the slowest
            single cell, or healthy slow cells will be quarantined.

    Returns:
        (flat list of (index, result) pairs, merged compile-cache
        stats, merged trace-cache stats, merged stage-cache stats,
        merged per-tier disk-store stats — empty without *store*).

    Raises:
        KeyboardInterrupt: re-raised after promptly terminating every
            live worker (no zombie children); cells completed before
            the interrupt were already journaled by their workers, so
            ``resume=True`` picks up from here.
    """
    # Imported lazily (like the worker's imports): sweep.py imports
    # this module back inside run_sweep.
    from repro.runtime.sweep import (CellFailure, CellResult,
                                     _cell_mapper, _cell_program,
                                     _merge_disk_stats)

    store_root = None if store is None else store.root
    ctx = pool_context()
    pending = deque(list(batch) for batch in batches)
    workers = max(1, min(workers, len(pending)))
    attempts: Dict[int, int] = {}
    completed: Dict[int, "CellResult"] = {}
    compile_stats = CacheStats()
    trace_stats = CacheStats()
    stage_stats = CacheStats()
    disk_stats: dict = {}
    active: List[_Supervised] = []

    def launch_available() -> None:
        while pending and len(active) < workers:
            batch = pending.popleft()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, batch,
                      {index: attempts[index] for index, _ in batch
                       if index in attempts},
                      store_root, faults),
                daemon=True)
            process.start()
            child_conn.close()
            active.append(_Supervised(process, parent_conn, batch))

    def drain(sup: _Supervised) -> None:
        while not sup.eof:
            try:
                if not sup.conn.poll():
                    return
                message = sup.conn.recv()
            except (EOFError, OSError):
                sup.eof = True
                return
            sup.last_progress = time.monotonic()
            if message[0] == "cell":
                _, index, result = message
                completed[index] = result
                sup.received += 1
            else:  # ("stats", ...) — the clean-completion marker
                _, cstats, tstats, sstats, dstats = message
                compile_stats.merge(cstats)
                trace_stats.merge(tstats)
                stage_stats.merge(sstats)
                _merge_disk_stats(disk_stats, dstats)
                sup.completed_ok = True

    def reap(sup: _Supervised) -> None:
        """Handle a worker that exited: resubmit / quarantine losses."""
        drain(sup)  # messages can still sit in the pipe after death
        sup.process.join()
        sup.conn.close()
        if sup.completed_ok:
            return
        remaining = sup.batch[sup.received:]
        if not remaining:
            # Died between the last cell and the stats message: every
            # result arrived; only this worker's counters are lost.
            return
        # Cells run in batch order, so the first unfinished cell is
        # the prime suspect — charge the death to it.
        head_index, head_cell = remaining[0]
        attempts[head_index] = attempts.get(head_index, 0) + 1
        if attempts[head_index] > max_retries:
            stage = "timeout" if sup.timed_out else "worker"
            reason = ("worker exceeded the batch timeout "
                      f"({batch_timeout}s without progress)"
                      if sup.timed_out else
                      "worker process died "
                      f"(exit code {sup.process.exitcode})")
            completed[head_index] = CellResult(
                key=head_cell.key,
                failure=CellFailure(
                    key=head_cell.key, index=head_index,
                    error_type="WorkerTimeout" if sup.timed_out
                    else "WorkerDied",
                    message=f"{reason}; quarantined after "
                            f"{attempts[head_index]} attempts",
                    attempts=attempts[head_index], stage=stage,
                    program=_cell_program(head_cell),
                    mapper=_cell_mapper(head_cell)))
            remaining = remaining[1:]
        if remaining:
            pending.appendleft(remaining)

    try:
        launch_available()
        while active:
            waitables = [sup.conn for sup in active if not sup.eof]
            waitables += [sup.process.sentinel for sup in active]
            if waitables:
                _wait_connections(waitables, timeout=_POLL_SECONDS)
            now = time.monotonic()
            still_active: List[_Supervised] = []
            for sup in active:
                drain(sup)
                if (batch_timeout is not None and not sup.completed_ok
                        and sup.process.is_alive()
                        and now - sup.last_progress > batch_timeout):
                    sup.timed_out = True
                    sup.process.kill()
                if sup.process.exitcode is not None:
                    reap(sup)
                else:
                    still_active.append(sup)
            active = still_active
            launch_available()
    except BaseException:
        # Prompt teardown (Ctrl-C and fatal errors alike): no zombie
        # children holding the fork context. Already-returned cells
        # were journaled by their workers as they completed, so a
        # resume picks up from the interrupt.
        for sup in active:
            if sup.process.is_alive():
                sup.process.terminate()
        deadline = time.monotonic() + 2.0
        for sup in active:
            sup.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if sup.process.is_alive():  # pragma: no cover — stubborn child
                sup.process.kill()
                sup.process.join()
            sup.conn.close()
        raise

    return (sorted(completed.items()), compile_stats, trace_stats,
            stage_stats, disk_stats)
