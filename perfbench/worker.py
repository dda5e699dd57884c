"""One measured process: set up a workload, run it twice, check it.

``run.py`` starts this script once per sample, so every sample pays a
cold start (imports, snapshots, circuits, cells) and cold sweep caches.
The first pass is the timed grid. The second pass runs the same grid on
what the first pass cached: the in-memory compile and trace caches, or
on ``mitigation_cached`` the cache directory, read through fresh cache
objects. The script prints one JSON object on its last line.

    python3 perfbench/worker.py --workload fig6_week --seed 1 \\
        --device-seed 2019 --traced 0 --cache-dir DIR --t0 T0

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process. Setup time is measured against it, which needs a clock
shared by all processes (``CLOCK_MONOTONIC`` on Linux). Each time is
reported as measured (``*_wall_s``) and rescaled to nominal host speed
by ``speed.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import numpy as np

from repro.compiler import verify_compiled
from repro.runtime import CompileCache, TraceCache, run_sweep

import speed
import tracing
from workloads import WORKLOADS

#: An ideal distribution must put at least this mass on the hand-written
#: expected output.
IDEAL_MASS = 0.99
OPTIMAL_VARIANTS = ("t-smt*", "r-smt*")


def digest(sweep) -> str:
    """Hash of every cell's counts, placement and mitigated estimate."""
    hasher = hashlib.sha256()
    for result in sweep:
        counts = (sorted(result.execution.counts.items())
                  if result.execution is not None else None)
        placement = (sorted(result.compiled.placement.items())
                     if result.compiled is not None else None)
        mitigated = (result.mitigation.mitigated_success
                     if result.mitigation is not None else None)
        hasher.update(repr((result.key, counts, placement,
                            mitigated)).encode())
    return hasher.hexdigest()


def check_outputs(workload: str, cells, sweep) -> list:
    """Every output check that fails, as one message each."""
    problems = [failure.describe() for failure in sweep.failures]
    seen = set()
    for cell, result in zip(cells, sweep):
        if not result.ok:
            continue
        compiled = result.compiled
        if (compiled.options.variant in OPTIMAL_VARIANTS
                and not compiled.mapping.optimal):
            problems.append(f"{cell.key}: mapping not proven optimal")
        if id(compiled.mapping) not in seen:
            seen.add(id(compiled.mapping))
            report = verify_compiled(compiled, cell.calibration,
                                     semantic=False)
            problems.extend(f"{cell.key}: {e}" for e in report.errors)
        execution = result.execution
        if execution is None:
            continue
        mass = execution.ideal_distribution.get(cell.expected, 0.0)
        if mass < IDEAL_MASS:
            problems.append(f"{cell.key}: ideal mass {mass:.4f} on the "
                            f"expected output")
        if sum(execution.counts.values()) != cell.trials:
            problems.append(f"{cell.key}: counts do not sum to "
                            f"{cell.trials}")
    if problems:
        return problems
    success = {result.key: result.success_rate for result in sweep
               if result.execution is not None}
    if workload == "fig5_shots":
        ratio = statistics.geometric_mean(
            success[(name, "r-smt*")] / success[(name, "qiskit")]
            for name, variant in success
            if variant == "qiskit" and success[(name, variant)])
        if not ratio > 1.0:
            problems.append(f"R-SMT*/Qiskit geomean {ratio:.3f} <= 1")
    if workload == "fig6_week":
        days = [(name, day) for name, variant, day in success
                if variant == "r-smt*"]
        wins = sum(success[(name, "r-smt*", day)]
                   >= success[(name, "t-smt*", day)] for name, day in days)
        if not wins > len(days) / 2:
            problems.append(f"R-SMT* >= T-SMT* on only {wins}/{len(days)} "
                            f"program-days")
    return problems


def quality(sweep) -> dict:
    """The exact output-quality figures of one pass.

    A cell that never read its expected output counts half a shot in
    the success geomean, so the figure stays above zero: every GHZ-mirror
    cell of ``scale_ladder`` reads zero at paper noise levels.
    """
    executed = [max(r.execution.success_rate, 0.5 / r.execution.trials)
                for r in sweep if r.ok and r.execution is not None]
    compiled = [r.compiled for r in sweep if r.ok]
    return {
        "success_geomean": statistics.geometric_mean(executed),
        "duration_total": sum(p.duration for p in compiled),
        "swap_total": sum(p.swap_count for p in compiled),
        "solver_nodes": sum(p.mapping.nodes or 0 for p in compiled
                            if not p.cache_hit),
    }


def sweep_figures(passes) -> dict:
    """Cache hit ratios and lookups, and disk traffic, over both passes.

    In-memory workloads reuse one cache object across the passes, so
    each distinct counter object is summed once.
    """
    out = {}
    for tier in ("compile", "stage", "trace"):
        stats = {id(s): s for s in
                 (getattr(p, f"{tier}_stats") for p in passes)}.values()
        hits = sum(s.hits for s in stats)
        lookups = sum(s.lookups for s in stats)
        out[f"runtime.{tier}_cache_lookups"] = lookups
        out[f"runtime.{tier}_cache_hit_ratio"] = (hits / lookups
                                                 if lookups else 0.0)
    disk = [s for p in passes for s in p.disk_stats.values()]
    out["runtime.disk_bytes_written"] = sum(s.bytes_written for s in disk)
    out["runtime.disk_bytes_read"] = sum(s.bytes_read for s in disk)
    out["mitigation.extra_executions"] = sum(
        r.mitigation.executions for p in passes for r in p
        if r.ok and r.mitigation is not None)
    return out


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--device-seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args()
    log = speed.SpeedLog()
    with log.running():
        work = WORKLOADS[args.workload](args.device_seed, args.seed)
        if work.uses_cache_dir:
            caches = dict(cache_dir=args.cache_dir)
        else:
            caches = dict(compile_cache=CompileCache(),
                          trace_cache=TraceCache())
        ready = time.perf_counter()
        tracer = tracing.Tracer() if args.traced else None
        passes, spans = [], []
        with tracing.installed(tracer) if tracer else nullcontext():
            for _ in range(2):
                span = tracer.span(tracing.ROOT) if tracer else nullcontext()
                start = time.perf_counter()
                with span:
                    passes.append(run_sweep(work.cells, workers=0,
                                            strict=False, **caches))
                spans.append((start, time.perf_counter()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [end - start for start, end in spans]

    grid, rerun = passes
    problems = check_outputs(args.workload, work.cells, grid)
    first = digest(grid)
    if digest(rerun) != first:
        problems.append("the cached rerun changed the results")
    out = {
        "setup_s": log.rescaled(args.t0, ready),
        "grid_s": log.rescaled(*spans[0]),
        "rerun_s": log.rescaled(*spans[1]),
        "setup_wall_s": ready - args.t0, "grid_wall_s": walls[0],
        "rerun_wall_s": walls[1],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(grid) + len(rerun),
        "failed": len(grid.failures) + len(rerun.failures),
        "digest": first, "problems": problems, "env": environment(),
        **quality(grid),
    }
    if tracer is not None:
        problems += tracing.check_coverage(tracer, args.workload,
                                           sum(walls))
        out["layers"] = {**tracing.layer_metrics(tracer),
                         **sweep_figures(passes)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
