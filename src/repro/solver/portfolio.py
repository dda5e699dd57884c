"""Deterministic portfolio branch-and-bound: root splitting across processes.

The vectorized kernel's exact-comparison search has a useful invariance:
its answer is the first leaf in canonical exploration order attaining
the float maximum, *independent of the incumbent trajectory*. That makes
the top of the tree embarrassingly parallel without giving up
reproducibility: each depth-1/depth-2 prefix (a "subtree", ranked by
the shared plan in lexicographic first-visit order — candidate
ordering is incumbent-independent, so every process derives the same
plan) can be solved by any process in any order, with incumbent values
exchanged only as pruning *floors*, and the merge rule —

* keep worker reports strictly better than the warm start,
* take the maximum value,
* break ties toward the lowest subtree rank,

— reconstructs the serial engine's assignment bit-for-bit. Floors prune
strictly-worse subtrees only (``bound < floor``) and never suppress an
equal-value leaf, so a low-rank subtree that merely *ties* a
higher-rank foreign incumbent still reports, exactly as the serial scan
would have preferred it.

Workers are plain processes on the sweep pool's multiprocessing context
(fork-preferring, see :func:`repro.runtime.pool.pool_context`), wired
with duplex pipes: the parent broadcasts the best known value after
every finished subtree ("batch boundary"), workers poll it every
:data:`repro.solver.bounds.FLOOR_POLL_NODES` nodes mid-search. Any
worker failure degrades to the serial engine — correctness never
depends on the pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.solver.bnb import (
    BranchAndBoundSolver,
    SolveResult,
    SolverStats,
    seed_assignment_columns,
)
from repro.solver.bounds import VectorSearch, compile_assignment
from repro.solver.model import Assignment, Model

#: Parent-side wait granularity while workers search (seconds).
_POLL_SECONDS = 0.05


def _worker_main(conn, mats, tasks, warm_cols, warm_value,
                 time_limit, node_limit, start) -> None:
    """Solve the assigned root subtrees, streaming incumbent progress.

    Args:
        tasks: ``(global_rank, prefix)`` pairs, rank-ascending —
            each prefix a depth-1 or depth-2 column tuple from
            :meth:`~repro.solver.bounds.VectorSearch.prefix_tasks`.
        warm_cols: Validated warm-start columns (or ``None``).
        start: Parent's ``perf_counter`` origin so the wall budget is
            shared, not per-process.
    """
    def poll_floor() -> Optional[float]:
        floor = None
        while conn.poll():
            msg = conn.recv()
            if msg[0] == "floor":
                floor = msg[1] if floor is None else max(floor, msg[1])
        return floor

    search = VectorSearch(mats, time_limit=time_limit,
                          node_limit=node_limit, start=start,
                          floor_poll=poll_floor)
    if warm_cols is not None:
        search.seed(np.asarray(warm_cols, dtype=np.intp), warm_value)
    completed = True
    try:
        for rank, path in tasks:
            floor = poll_floor()
            if floor is not None and floor > search.floor:
                search.floor = floor
            ok = search.run(root_cols=[tuple(path)], rank_base=int(rank))
            value = (search.best_value if search.best_cols is not None
                     else None)
            conn.send(("progress", rank, value))
            if not ok:
                completed = False
                break
        cols = (None if search.best_cols is None
                else [int(c) for c in search.best_cols])
        conn.send(("done", search.best_value, cols, search.best_rank,
                   search.nodes, search.prunes, search.incumbents,
                   completed, search.truncated))
    except Exception as exc:  # surfaced parent-side as a fallback trigger
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class PortfolioSolver:
    """Root-splitting portfolio around the vectorized kernel.

    Falls back to the serial :class:`BranchAndBoundSolver` whenever the
    model is not assignment-shaped, fewer than two root subtrees exist,
    or the pool misbehaves — the answer is bit-identical either way
    (pinned by tests), so callers never need to care which path ran.

    Attributes:
        workers: Maximum worker processes (capped by subtree count).
        time_limit: Shared wall-clock budget in seconds.
        node_limit: Per-worker node budget (the serial engine's global
            budget has no exact parallel equivalent).
    """

    workers: int = 2
    time_limit: Optional[float] = None
    node_limit: Optional[int] = None

    def solve(self, model: Model,
              initial: Optional[Assignment] = None) -> SolveResult:
        serial = BranchAndBoundSolver(time_limit=self.time_limit,
                                      node_limit=self.node_limit)
        if self.workers < 2:
            return serial.solve(model, initial)
        mats = compile_assignment(model)
        if mats is None:
            return serial.solve(model, initial)

        start = time.perf_counter()
        plan = VectorSearch(mats, start=start)
        seed_assignment_columns(plan, model, mats, initial)
        prefixes = plan.prefix_tasks()
        n_workers = min(self.workers, len(prefixes))
        if n_workers < 2:
            return serial.solve(model, initial)

        try:
            outcome = self._run_pool(mats, plan, prefixes, n_workers,
                                     start)
        except Exception:
            outcome = None
        if outcome is None:  # pool failure: the serial proof is the answer
            return serial.solve(model, initial)
        return self._merge(model, mats, plan, prefixes, outcome, start)

    # ------------------------------------------------------------------
    def _run_pool(self, mats, plan: VectorSearch,
                  prefixes: List[Tuple[int, ...]], n_workers: int,
                  start: float) -> Optional[List[tuple]]:
        from repro.runtime.pool import pool_context

        ctx = pool_context()
        warm_cols = (None if plan.best_cols is None
                     else [int(c) for c in plan.best_cols])
        tasks: List[List[Tuple[int, Tuple[int, ...]]]] = \
            [[] for _ in range(n_workers)]
        for rank, prefix in enumerate(prefixes):
            tasks[rank % n_workers].append((rank, tuple(prefix)))

        workers = []
        for w in range(n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, mats, tasks[w], warm_cols,
                      plan.best_value, self.time_limit, self.node_limit,
                      start),
                daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))

        floor = -np.inf
        done: List[Optional[tuple]] = [None] * n_workers
        failed = False
        deadline = (None if self.time_limit is None
                    else start + self.time_limit + 30.0)
        try:
            pending = set(range(n_workers))
            while pending:
                if deadline is not None and time.perf_counter() > deadline:
                    failed = True  # a worker wedged past its own budget
                    break
                from multiprocessing.connection import wait as _wait
                ready = _wait([workers[w][1] for w in pending],
                              timeout=_POLL_SECONDS)
                for conn in ready:
                    w = next(i for i in pending
                             if workers[i][1] is conn)
                    try:
                        msg = conn.recv()
                    except EOFError:
                        failed = True
                        pending.discard(w)
                        continue
                    if msg[0] == "progress":
                        value = msg[2]
                        if value is not None and value > floor:
                            floor = value
                            for i in pending:
                                if i != w:
                                    try:
                                        workers[i][1].send(("floor", floor))
                                    except (BrokenPipeError, OSError):
                                        pass
                    elif msg[0] == "done":
                        done[w] = msg
                        pending.discard(w)
                    else:  # "error"
                        failed = True
                        pending.discard(w)
        finally:
            for proc, conn in workers:
                conn.close()
            for proc, conn in workers:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                    failed = True
        if failed or any(d is None for d in done):
            return None
        return done  # type: ignore[return-value]

    def _merge(self, model: Model, mats, plan: VectorSearch,
               prefixes: List[Tuple[int, ...]], done: List[tuple],
               start: float) -> SolveResult:
        warm_value = plan.best_value
        warm_cols = plan.best_cols
        best_value = warm_value
        best_cols = warm_cols
        best_rank: Optional[int] = None
        nodes = prunes = 0
        incumbents = plan.incumbents
        completed = True
        truncated = False
        for msg in done:
            (_, value, cols, rank, w_nodes, w_prunes, w_incumbents,
             w_completed, w_truncated) = msg
            nodes += w_nodes
            prunes += w_prunes
            incumbents += max(0, w_incumbents - plan.incumbents)
            completed = completed and w_completed
            truncated = truncated or w_truncated
            if cols is None or rank is None:
                continue  # nothing beyond the warm start in that worker
            if value > best_value or (value == best_value
                                      and best_rank is not None
                                      and rank < best_rank):
                best_value = value
                best_cols = np.asarray(cols, dtype=np.intp)
                best_rank = rank

        assignment = None
        objective = None
        if best_cols is not None:
            assignment = {name: int(mats.values[c])
                          for name, c in zip(mats.var_names, best_cols)}
            objective = best_value
        stats = SolverStats(engine="portfolio", nodes=nodes, prunes=prunes,
                            incumbents=incumbents, workers=len(done),
                            subtrees=len(prefixes))
        return SolveResult(
            assignment=assignment,
            objective=objective,
            optimal=completed and not truncated,
            nodes=nodes,
            elapsed=time.perf_counter() - start,
            timed_out=not completed,
            stats=stats,
        )
