"""Executor throughput: the per-trial loop vs the vectorized batched engine.

Tracks the batched-engine speedup in the perf trajectory. The batched
engine must stay >= 10x faster than the per-trial loop at 4096 trials
on BV4 (the headline acceptance bar for the vectorized engine). The
per-trial loop is ``reference_execute`` from ``tests/trial_reference.py``,
the batched engine's test oracle. A 12-qubit random circuit checks that
squeezing the chunk budget leaves the counts unchanged.

The exact-law rung keeps the evidence for ``EXACT_MAX_QUBITS``: for
each trace size from 2 qubits to one past the cap, on Table-2 traces
and random circuits, it times one exact-law pass against one
trajectory pass at 1024 shots. Outside smoke mode it asserts the exact
law is no slower at every size up to the cap.
"""

import statistics
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import numpy as np

import repro.simulator.batch as batch
from repro.compiler import CompilerOptions, compile_circuit
from repro.programs import (benchmark_names, build_benchmark,
                            expected_output, random_circuit)
from repro.simulator import CompactProgram, NoiseModel, ProgramTrace, execute
from repro.simulator.batch import CHUNK_ENV, EXACT_MAX_QUBITS, run_batched
from repro.simulator.exact import outcome_law

from conftest import SMOKE, record

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from trial_reference import reference_execute  # noqa: E402

RUNNERS = {"trial": reference_execute,
           "batched": partial(execute, engine="batched")}

#: The chunk-budget subject: state tensors big enough that a 1 MiB
#: budget splits the plans into many chunks; greedy mapping because the
#: SMT variants do not scale to 12 qubits.
N_QUBITS = 12
N_GATES = 24 if SMOKE else 60
CHUNK_TRIALS = 256 if SMOKE else 4096


@pytest.fixture(scope="module")
def bv4_program(calibration, tables):
    return compile_circuit(build_benchmark("BV4"), calibration,
                           CompilerOptions.r_smt_star(), tables=tables)


@pytest.fixture(scope="module")
def program_12q(calibration, tables):
    circuit = random_circuit(N_QUBITS, N_GATES, seed=5,
                             two_qubit_fraction=0.3)
    return compile_circuit(circuit, calibration,
                           CompilerOptions.greedy_e(), tables=tables)


@pytest.mark.parametrize("trials", [512, 4096])
@pytest.mark.parametrize("engine", ["trial", "batched"])
def test_execute_bv4(benchmark, bv4_program, calibration, engine, trials):
    result = benchmark.pedantic(
        RUNNERS[engine], args=(bv4_program, calibration),
        kwargs={"trials": trials, "seed": 0,
                "expected": expected_output("BV4")},
        rounds=3, iterations=1, warmup_rounds=1)
    assert sum(result.counts.values()) == trials


def test_batched_speedup_bv4_4096(benchmark, bv4_program, calibration):
    """Median batched speedup over the per-trial loop at 4096 trials."""
    kwargs = {"trials": 4096, "seed": 0,
              "expected": expected_output("BV4")}

    def timed(run, rounds=3):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            run(bv4_program, calibration, **kwargs)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    execute(bv4_program, calibration, engine="batched", **kwargs)  # warm
    legacy = timed(reference_execute)
    batched = benchmark.pedantic(
        execute, args=(bv4_program, calibration),
        kwargs={**kwargs, "engine": "batched"},
        rounds=5, iterations=1)
    batched_median = benchmark.stats.stats.median
    speedup = legacy / batched_median
    benchmark.extra_info["speedup"] = speedup
    record(benchmark,
           f"BV4 @4096 trials: trial={legacy * 1e3:.1f} ms  "
           f"batched={batched_median * 1e3:.1f} ms  "
           f"speedup={speedup:.1f}x")
    assert sum(batched.counts.values()) == 4096
    if not SMOKE:
        assert speedup >= 10.0


def test_chunk_budget_invariance(benchmark, program_12q, calibration,
                                 monkeypatch):
    """Squeezing the chunk budget must not change counts."""
    kwargs = {"trials": CHUNK_TRIALS, "seed": 0}
    reference = execute(program_12q, calibration, **kwargs)
    monkeypatch.setenv(CHUNK_ENV, "1")  # 65536 amplitudes = 16 plans @12q
    squeezed = benchmark.pedantic(
        execute, args=(program_12q, calibration), kwargs=kwargs,
        rounds=1, iterations=1)
    assert squeezed.counts == reference.counts
    record(benchmark,
           f"chunk-budget invariance: {sum(reference.counts.values())} "
           f"trials identical at default vs 1 MiB budget")


#: Exact-law rung: trace sizes (one past the cap), shots per trajectory
#: pass, gates per random circuit, and timing rounds per trace.
LAW_QUBITS = range(2, EXACT_MAX_QUBITS + 2)
LAW_SHOTS = 1024
LAW_GATES = 24 if SMOKE else 48
LAW_ROUNDS = 1 if SMOKE else 5


def _median_seconds(run, rounds):
    run()  # warm the gate-matrix caches
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _law_subjects(calibration, tables):
    """Lowered Table-2 traces (R-SMT*) and one random circuit per size
    (GreedyE*), grouped by trace qubit count."""
    programs = [compile_circuit(build_benchmark(name), calibration,
                                CompilerOptions.r_smt_star(), tables=tables)
                for name in benchmark_names()]
    programs += [compile_circuit(random_circuit(n, LAW_GATES, seed=n),
                                 calibration, CompilerOptions.greedy_e(),
                                 tables=tables)
                 for n in LAW_QUBITS]
    by_size = {}
    for program in programs:
        compact = CompactProgram(program.physical.circuit,
                                 program.physical.times,
                                 topology=calibration.topology)
        trace = ProgramTrace(compact, NoiseModel(calibration))
        _ = trace.ideal_distribution  # both paths' shared setup
        if trace.n_qubits in LAW_QUBITS:
            by_size.setdefault(trace.n_qubits, []).append(trace)
    return by_size


def test_exact_law_vs_trajectories(benchmark, calibration, tables,
                                   monkeypatch):
    """Per trace size: summed median seconds of one exact-law pass and
    of one trajectory pass at 1024 shots."""
    by_size = _law_subjects(calibration, tables)
    # run_batched samples trajectories; outcome_law is timed directly.
    monkeypatch.setattr(batch, "EXACT_MAX_QUBITS", 0)

    def sweep():
        return {n: (sum(_median_seconds(lambda: outcome_law(t), LAW_ROUNDS)
                        for t in traces),
                    sum(_median_seconds(
                        lambda: run_batched(t, LAW_SHOTS,
                                            np.random.default_rng(0)),
                        LAW_ROUNDS) for t in traces),
                    len(traces))
                for n, traces in sorted(by_size.items())}

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["exact_vs_trajectory_s"] = {
        n: [exact, traj] for n, (exact, traj, _) in rows.items()}
    record(benchmark, "\n".join(
        f"{n} qubits ({count} traces): exact {exact * 1e3:.2f} ms  "
        f"trajectories@{LAW_SHOTS} {traj * 1e3:.2f} ms"
        for n, (exact, traj, count) in rows.items()))
    assert set(rows) == set(LAW_QUBITS)
    if not SMOKE:
        for n, (exact, traj, _) in rows.items():
            if n <= EXACT_MAX_QUBITS:
                assert exact <= traj, (n, exact, traj)
