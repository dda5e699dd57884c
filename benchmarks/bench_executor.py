"""Executor throughput: the per-trial loop vs the vectorized batched engine.

Tracks the batched-engine speedup in the perf trajectory. The batched
engine must stay >= 10x faster than the per-trial loop at 4096 trials
on BV4 (the headline acceptance bar for the vectorized engine). The
per-trial loop is ``reference_execute`` from ``tests/trial_reference.py``,
the batched engine's test oracle. A 12-qubit random circuit checks that
squeezing the chunk budget leaves the counts unchanged.
"""

import statistics
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.programs import build_benchmark, expected_output, random_circuit
from repro.simulator import execute
from repro.simulator.batch import CHUNK_ENV

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
