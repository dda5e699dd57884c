"""Compile-time profiling: wall-clock and allocation counters per pass.

The paper's Fig. 11 argument is about *compile time* — the SMT variants
buy reliability with solver seconds. This module makes that spend
observable: a :class:`Profiler` threads through
:meth:`repro.compiler.pipeline.PassManager.run` and accumulates, per
pass, wall time, call counts, cache hits, and (via :mod:`tracemalloc`)
allocation deltas. The ``repro profile`` CLI command drives a compile
under a profiler and renders the report alongside the solver's own
search counters (nodes, prunes, incumbents — see
:class:`repro.solver.SolverStats`).

Allocation tracing costs real time (tracemalloc instruments every
allocation), so it is opt-in per profiler and never enabled on the hot
sweep path — the sweep runtime keeps its plain ``PassTiming`` log.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class PassProfile:
    """Accumulated cost of one named pipeline pass.

    Attributes:
        name: The pass name (stage-cache identity).
        calls: Times the pass actually ran.
        seconds: Total wall-clock across those runs.
        alloc_bytes: Net bytes allocated during the runs (what the
            pass's artifacts retain plus transient garbage not yet
            collected at measurement time).
        peak_bytes: Largest single-run traced-memory peak delta.
        cache_hits: Times a stage cache served the artifact instead.
    """

    name: str
    calls: int = 0
    seconds: float = 0.0
    alloc_bytes: int = 0
    peak_bytes: int = 0
    cache_hits: int = 0


class Profiler:
    """Collects per-pass cost during one or more compiles.

    Args:
        trace_allocations: Also record tracemalloc deltas. The profiler
            starts tracing on construction if nothing else has and stops
            it again in :meth:`close` only when it was the one to start
            it (so nesting under an outer tracer is safe).
    """

    def __init__(self, trace_allocations: bool = True) -> None:
        self.passes: Dict[str, PassProfile] = {}
        self.trace_allocations = trace_allocations
        self._started_tracing = False
        if trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    def close(self) -> None:
        """Stop allocation tracing if this profiler started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracing = False

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def profile_for(self, name: str) -> PassProfile:
        if name not in self.passes:
            self.passes[name] = PassProfile(name=name)
        return self.passes[name]

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Time (and optionally allocation-trace) one pass execution."""
        tracing = self.trace_allocations and tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
        tick = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - tick
            prof = self.profile_for(name)
            prof.calls += 1
            prof.seconds += seconds
            if tracing:
                after, peak = tracemalloc.get_traced_memory()
                prof.alloc_bytes += max(0, after - before)
                prof.peak_bytes = max(prof.peak_bytes,
                                      max(0, peak - before))

    def record_cache_hit(self, name: str) -> None:
        self.profile_for(name).cache_hits += 1

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view (JSON-friendly, insertion order = pass order)."""
        return {
            name: {
                "calls": p.calls,
                "seconds": p.seconds,
                "alloc_bytes": p.alloc_bytes,
                "peak_bytes": p.peak_bytes,
                "cache_hits": p.cache_hits,
            }
            for name, p in self.passes.items()
        }

    def report(self, solver_stats: Optional[Dict[str, object]] = None
               ) -> str:
        """Human-readable table, heaviest pass first.

        Args:
            solver_stats: Optional solver counter dict (from
                ``MappingResult.stats``) appended below the table.
        """
        lines: List[str] = []
        width = max([len("total")] + [len(name) for name in self.passes])
        header = (f"{'pass':<{width}} {'calls':>5} {'hits':>5} "
                  f"{'seconds':>9} {'alloc':>10} {'peak':>10}")
        lines.append(header)
        lines.append("-" * len(header))
        total = 0.0
        for p in sorted(self.passes.values(), key=lambda p: -p.seconds):
            total += p.seconds
            lines.append(
                f"{p.name:<{width}} {p.calls:>5} {p.cache_hits:>5} "
                f"{p.seconds:>9.4f} {_fmt_bytes(p.alloc_bytes):>10} "
                f"{_fmt_bytes(p.peak_bytes):>10}")
        lines.append(f"{'total':<{width}} {'':>5} {'':>5} {total:>9.4f}")
        if solver_stats:
            lines.append("")
            lines.append("solver: " + ", ".join(
                f"{k}={v}" for k, v in solver_stats.items()))
        return "\n".join(lines)


def _fmt_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GiB"
