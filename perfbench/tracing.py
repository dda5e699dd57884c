"""Span recording around the public entry points of each layer.

The benchmark does not change the program to trace it. It replaces the
entry points of each layer, as the calling module binds them, with a
wrapper that records a span (name, start, end, parent) and a few
counts, and puts the originals back afterwards. A layer's self time is
the time its spans cover minus the part their child spans cover.

Where a caller imported a function by name, the wrapper must replace
that name in the caller's module, or it never fires:
``repro.simulator.executor`` binds ``run_batched`` and
``repro.runtime.sweep`` binds ``execute`` this way. ``ProgramTrace``
computes its ideal distribution behind a ``cached_property``, so that
property is rebuilt around the wrapped function. ``check_coverage``
catches a wrapper bound to a stale name: its span never fires.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

import repro.hardware.reliability as reliability
import repro.mitigation.readout as readout
import repro.mitigation.strategy as strategy
import repro.mitigation.zne as zne
import repro.runtime.sweep as sweep
import repro.simulator.batch as batch
import repro.simulator.executor as executor
import repro.simulator.stabilizer.engine as stabilizer
from repro.compiler import pipeline
from repro.hardware import ReliabilityTables
from repro.runtime.diskcache import DiskStore
from repro.simulator.trace import ProgramTrace
from repro.solver import BranchAndBoundSolver

ROOT = "runtime.run_sweep"

#: Spans each workload must fire at least once in a traced run.
COMMON_SPANS = (ROOT, "compiler.compile", "compiler.mapping",
                "compiler.scheduling", "compiler.swap_insert",
                "compiler.reliability", "hardware.tables", "solver.solve",
                "simulator.execute", "simulator.lower")
DENSE_SPANS = ("simulator.ideal", "simulator.sample", "simulator.plan_sim")
EXPECTED_SPANS = {
    "fig5_shots": COMMON_SPANS + DENSE_SPANS,
    "fig6_week": COMMON_SPANS + DENSE_SPANS,
    "mitigation_cached": COMMON_SPANS + DENSE_SPANS + (
        "mitigation.mitigate", "runtime.disk_store", "runtime.disk_load"),
    "scale_ladder": COMMON_SPANS + ("simulator.stabilizer",),
}

#: How far the summed self times may stray from the traced wall time.
COVERAGE_TOLERANCE = 0.02


class Tracer:
    """In-memory span list plus counters for one traced process."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index]`` per span; roots have
        #: parent ``-1``.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """*fn* recording a span per call; *count* sees the arguments
        and the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return traced

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out

    def total_times(self) -> Dict[str, float]:
        """Summed inclusive time per span name (nested same-name spans
        counted once)."""
        out: Dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                continue
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def fired(self) -> Counter:
        return Counter(record[0] for record in self.spans)


# ----------------------------------------------------------------------
# Counters attached to wrapped calls
# ----------------------------------------------------------------------
def _count_solve(counts, args, kwargs, result) -> None:
    counts["solver.solves"] += 1
    counts["solver.nodes"] += result.nodes
    if result.stats is not None and result.stats.engine == "generic":
        counts["solver.generic_solves"] += 1


def _count_tables(counts, args, kwargs, result) -> None:
    counts["hardware.tables_built"] += 1


def _count_execute(counts, args, kwargs, result) -> None:
    counts["simulator.executions"] += 1
    counts["simulator.shots"] += result.trials


def _count_sample(counts, args, kwargs, result) -> None:
    counts["simulator.dense_shots"] += args[1]


def _count_plans(counts, args, kwargs, result) -> None:
    counts["simulator.plans"] += len(args[1])


#: (owner, attribute, span name, counter) for every wrapped entry point.
PATCH_POINTS = [
    (DiskStore, "store_blob", "runtime.disk_store", None),
    (DiskStore, "load_blob", "runtime.disk_load", None),
    (pipeline.PassManager, "run", "compiler.compile", None),
    (pipeline.MappingPass, "run", "compiler.mapping", None),
    (pipeline.SchedulingPass, "run", "compiler.scheduling", None),
    (pipeline.SwapInsertPass, "run", "compiler.swap_insert", None),
    (pipeline.ReliabilityPass, "run", "compiler.reliability", None),
    (BranchAndBoundSolver, "solve", "solver.solve", _count_solve),
    (ReliabilityTables, "__init__", "hardware.tables", _count_tables),
    (ReliabilityTables, "_dijkstra_from", "hardware.tables", None),
    (reliability, "route_cost", "hardware.tables", None),
    (sweep, "execute", "simulator.execute", _count_execute),
    (strategy, "execute", "simulator.execute", _count_execute),
    (ProgramTrace, "__init__", "simulator.lower", None),
    (executor, "run_batched", "simulator.sample", _count_sample),
    (batch, "batch_plan_probabilities", "simulator.plan_sim",
     _count_plans),
    (stabilizer.StabilizerEngine, "run", "simulator.stabilizer", None),
    (zne.ZneStrategy, "mitigate", "mitigation.mitigate", None),
    (readout.ReadoutStrategy, "mitigate", "mitigation.mitigate", None),
    (strategy.ComposedStrategy, "mitigate", "mitigation.mitigate",
     None),
]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in PATCH_POINTS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        original = ProgramTrace.__dict__["_ideal"]
        saved.append((ProgramTrace, "_ideal", original))
        ideal = functools.cached_property(
            tracer.wrap(original.func, "simulator.ideal"))
        ideal.__set_name__(ProgramTrace, "_ideal")
        ProgramTrace._ideal = ideal
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Self-checks and the per-layer figures
# ----------------------------------------------------------------------
def check_coverage(tracer: Tracer, workload: str,
                   traced_wall: float) -> List[str]:
    """Problems with the trace: expected spans that never fired, layer
    calls outside a sweep, or self times that do not add up to the
    traced wall time."""
    problems = []
    fired = tracer.fired()
    for name in EXPECTED_SPANS[workload]:
        if not fired[name]:
            problems.append(f"span {name} never fired on {workload}")
    strays = {name for name, _, _, parent in tracer.spans
              if parent < 0 and name != ROOT}
    if strays:
        problems.append(f"spans outside a sweep: {sorted(strays)}")
    accounted = sum(tracer.self_times().values())
    if abs(accounted - traced_wall) > COVERAGE_TOLERANCE * traced_wall:
        problems.append(f"self times sum to {accounted:.4f}s but the "
                        f"traced passes took {traced_wall:.4f}s")
    return problems


def _ms_percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100,
                                method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer self times and counts from one traced process."""
    own = tracer.self_times()
    total = tracer.total_times()
    counts = tracer.counts
    compiles = tracer.durations("compiler.compile")
    shots = counts["simulator.shots"]
    dense_shots = counts["simulator.dense_shots"]
    nodes = counts["solver.nodes"]
    return {
        "runtime.self_s": own.get(ROOT, 0.0),
        "runtime.disk_store_s": total.get("runtime.disk_store", 0.0),
        "runtime.disk_load_s": total.get("runtime.disk_load", 0.0),
        "compiler.compiles": len(compiles),
        "compiler.compile_p50_ms": _ms_percentile(compiles, 50),
        "compiler.compile_p90_ms": _ms_percentile(compiles, 90),
        "compiler.self_s": sum(t for name, t in own.items()
                               if name.startswith("compiler.")),
        "compiler.mapping_self_s": own.get("compiler.mapping", 0.0),
        "compiler.scheduling_s": total.get("compiler.scheduling", 0.0),
        "compiler.swap_insert_s": total.get("compiler.swap_insert", 0.0),
        "compiler.reliability_s": total.get("compiler.reliability", 0.0),
        "solver.solves": counts["solver.solves"],
        "solver.solve_s": total.get("solver.solve", 0.0),
        "solver.nodes": nodes,
        "solver.us_per_node": (total.get("solver.solve", 0.0) * 1e6 / nodes
                               if nodes else 0.0),
        "solver.generic_solves": counts["solver.generic_solves"],
        "hardware.tables_built": counts["hardware.tables_built"],
        "hardware.tables_s": total.get("hardware.tables", 0.0),
        "simulator.executions": counts["simulator.executions"],
        "simulator.shots": shots,
        "simulator.execute_self_s": own.get("simulator.execute", 0.0),
        "simulator.lower_s": (total.get("simulator.lower", 0.0)
                              + total.get("simulator.ideal", 0.0)),
        "simulator.sample_s": total.get("simulator.sample", 0.0),
        "simulator.plan_sim_s": total.get("simulator.plan_sim", 0.0),
        "simulator.plans": counts["simulator.plans"],
        "simulator.plans_per_kshot": (counts["simulator.plans"] * 1e3
                                      / dense_shots if dense_shots else 0.0),
        "simulator.us_per_shot": (total.get("simulator.sample", 0.0) * 1e6
                                  / dense_shots if dense_shots else 0.0),
        "simulator.stabilizer_s": own.get("simulator.stabilizer", 0.0),
        "mitigation.self_s": own.get("mitigation.mitigate", 0.0),
        "trace.spans": len(tracer.spans),
    }
