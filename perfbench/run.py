"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5_shots --seed 1 --seconds 20 \\
        --trace 0

Starts ``worker.py`` once per sample, one process at a time, until
``--seconds`` would be exceeded (at least three samples), and reports
medians. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
alternates traced and untraced samples and prints the per-layer
metrics, with the tracing overhead measured against the untraced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed output
check prints ``"correct": false`` and exits with code 1. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("fig5_shots", "fig6_week", "mitigation_cached", "scale_ladder")
#: The repository's reference IBMQ16 and Fig.-11 instances. Seed 7 is
#: held out from tuning: a claimed gain must also hold there.
DEFAULT_DEVICE_SEED = 2019

#: Variables the package reads that change what is measured: fault
#: injection makes cells fail, and the chunk override changes how the
#: sampler batches its work.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_FAULT_SPEC", "REPRO_CHUNK_MIB")
#: Pinned in every sample, so a multi-threaded BLAS cannot compete with
#: the single-process sweep for the cores.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150

#: name -> unit. Medians over samples, except the exact figures.
END_TO_END = {
    "setup_s": "s", "grid_s": "s", "rerun_s": "s", "peak_rss_mb": "MB",
    "completed_share": "ratio", "success_geomean": "ratio",
    "duration_total": "timeslots", "swap_total": "count",
}
EXACT_END_TO_END = ("success_geomean", "duration_total", "swap_total")

PER_LAYER = {
    "runtime.self_s": "s",
    "runtime.compile_cache_hit_ratio": "ratio",
    "runtime.compile_cache_lookups": "count",
    "runtime.stage_cache_hit_ratio": "ratio",
    "runtime.stage_cache_lookups": "count",
    "runtime.trace_cache_hit_ratio": "ratio",
    "runtime.trace_cache_lookups": "count",
    "runtime.disk_store_s": "s",
    "runtime.disk_load_s": "s",
    "runtime.disk_bytes_written": "bytes",
    "runtime.disk_bytes_read": "bytes",
    "compiler.compiles": "count",
    "compiler.compile_p50_ms": "ms",
    "compiler.compile_p90_ms": "ms",
    "compiler.self_s": "s",
    "compiler.mapping_self_s": "s",
    "compiler.scheduling_s": "s",
    "compiler.swap_insert_s": "s",
    "compiler.reliability_s": "s",
    "solver.solves": "count",
    "solver.solve_s": "s",
    "solver.nodes": "count",
    "solver.us_per_node": "us",
    "solver.generic_solves": "count",
    "hardware.tables_built": "count",
    "hardware.tables_s": "s",
    "simulator.executions": "count",
    "simulator.shots": "count",
    "simulator.execute_self_s": "s",
    "simulator.lower_s": "s",
    "simulator.sample_s": "s",
    "simulator.plan_sim_s": "s",
    "simulator.plans": "count",
    "simulator.plans_per_kshot": "plans/kshot",
    "simulator.us_per_shot": "us",
    "simulator.stabilizer_s": "s",
    "mitigation.self_s": "s",
    "mitigation.extra_executions": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}
#: Per-layer figures that must repeat exactly between samples.
EXACT_UNITS = ("count", "bytes", "ratio", "plans/kshot")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="shot seed of every cell")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--device-seed", type=int,
                        default=DEFAULT_DEVICE_SEED,
                        help="calibration and circuit seed (held out: 7)")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------
def sample_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(PINNED_ENV)
    return env


def run_sample(args, traced: bool, index: int) -> dict:
    """One worker process; returns its JSON result."""
    cache_dir = SCRATCH / f"{os.getpid()}-{index}"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--device-seed", str(args.device_seed),
               "--traced", str(int(traced)), "--cache-dir", str(cache_dir)]
    try:
        t0 = time.perf_counter()
        done = subprocess.run(command + ["--t0", repr(t0)], cwd=ROOT,
                              env=sample_env(), capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"sample {index} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def collect(args) -> List[dict]:
    """Samples until the next would overrun ``--seconds``."""
    samples: List[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        # Traced runs alternate, starting traced: T, U, T, U, ...
        traced = bool(args.trace) and len(samples) % 2 == 0
        tick = time.perf_counter()
        samples.append(run_sample(args, traced, len(samples)))
        longest = max(longest, time.perf_counter() - tick)
        if (len(samples) >= MIN_SAMPLES
                and time.perf_counter() + longest - start > args.seconds):
            return samples


# ----------------------------------------------------------------------
# Aggregation and checks
# ----------------------------------------------------------------------
def repeated(samples: List[dict], key, problems: List[str], what: str):
    """The value every sample agrees on (a problem when they differ)."""
    values = [key(s) for s in samples]
    if any(v != values[0] for v in values):
        problems.append(f"{what} differs between samples with one seed: "
                        f"{values}")
    return values[0]


def end_to_end(samples: List[dict], problems: List[str]) -> Dict[str, float]:
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    out = {name: statistics.median([s[name] for s in samples])
           for name in ("setup_s", "grid_s", "rerun_s", "peak_rss_mb")}
    out["completed_share"] = (attempted - failed) / attempted
    for name in EXACT_END_TO_END:
        out[name] = repeated(samples, lambda s: s[name], problems, name)
    return out


def per_layer(samples: List[dict], problems: List[str]) -> Dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_pct":
            continue
        if unit in EXACT_UNITS:
            out[name] = repeated(traced, lambda s: s["layers"][name],
                                 problems, name)
        else:
            out[name] = statistics.median(
                [s["layers"][name] * nominal_speed(s) for s in traced])
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median([s["grid_s"] for s in traced])
        / statistics.median([s["grid_s"] for s in plain]) - 1.0)
    return out


def nominal_speed(sample: dict) -> float:
    """The factor that took the sample's passes to nominal host speed
    (see speed.py), applied to its layer times as well."""
    return ((sample["grid_s"] + sample["rerun_s"])
            / (sample["grid_wall_s"] + sample["rerun_wall_s"]))


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read without leaving it (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    hasher = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def environment(samples: List[dict], args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "device_seed": args.device_seed, "samples": len(samples),
        "traced_samples": sum(s["traced"] for s in samples),
        "result_digest": samples[0]["digest"],
        "solver_nodes": samples[0]["solver_nodes"],
        "median_wall_s": {
            name: statistics.median([s[f"{name}_wall_s"] for s in samples])
            for name in ("setup", "grid", "rerun")},
        "git_sha": git_sha(), "source_digest": source_digest(),
        **samples[0]["env"], "nproc": os.cpu_count(),
        "mem_total_mb": (os.sysconf("SC_PAGE_SIZE")
                         * os.sysconf("SC_PHYS_PAGES")) // 2**20,
        "pinned_env": PINNED_ENV,
    }


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"error: unset {', '.join(refused)}: it changes what is "
              f"measured", file=sys.stderr)
        return 2
    try:
        samples = collect(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    problems = list(dict.fromkeys(p for s in samples for p in s["problems"]))
    repeated(samples, lambda s: s["digest"], problems, "result digest")
    repeated(samples, lambda s: s["solver_nodes"], problems, "solver nodes")
    if args.trace:
        values, units = per_layer(samples, problems), PER_LAYER
    else:
        values, units = end_to_end(samples, problems), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print("env " + json.dumps(environment(samples, args)))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
