"""Array-backend throughput: the batched engine on torch/cupy vs numpy.

The pluggable array-backend seam only earns its keep if
``engine="batched"`` with ``array_backend="torch"`` (or ``"cupy"``)
actually outruns the numpy contraction: this bench pins a >= 1.3x
median speedup on a 12-qubit high-trial random circuit (state tensors
big enough that tensordot throughput, not Python overhead, dominates)
for each accelerated backend that is installed. With neither torch nor
cupy installed the speedup subjects skip cleanly, and the numpy-only
chunk-budget invariance check still runs — which is exactly what the
accelerator-less CI smoke job exercises.
"""

import statistics
import time

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.programs import random_circuit
from repro.simulator import array_backend_available, execute
from repro.simulator.xp import CHUNK_ENV

from conftest import SMOKE, record

#: Big enough that per-gate tensordots dominate the run; greedy
#: mapping because the SMT variants do not scale to 12 qubits.
N_QUBITS = 12
N_GATES = 24 if SMOKE else 60
TRIALS = 256 if SMOKE else 4096


@pytest.fixture(scope="module")
def program_12q(calibration, tables):
    circuit = random_circuit(N_QUBITS, N_GATES, seed=5,
                             two_qubit_fraction=0.3)
    return compile_circuit(circuit, calibration,
                           CompilerOptions.greedy_e(), tables=tables)


@pytest.mark.parametrize("backend_name", ["cupy", "torch"])
def test_accelerated_speedup_over_numpy(benchmark, program_12q,
                                        calibration, backend_name):
    """Median speedup of the batched engine on *backend_name* over the
    numpy contraction."""
    if not array_backend_available(backend_name):
        pytest.skip(f"array backend {backend_name!r} not installed")
    kwargs = {"trials": TRIALS, "seed": 0, "engine": "batched"}

    def timed_numpy(rounds):
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            execute(program_12q, calibration, array_backend="numpy",
                    **kwargs)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    # Warm both paths (trace lowering, device init, staging uploads).
    reference = execute(program_12q, calibration, array_backend="numpy",
                        **kwargs)
    accelerated = execute(program_12q, calibration,
                          array_backend=backend_name, **kwargs)
    # Counts are bit-identical by construction — assert it here too, so
    # a speedup can never be bought with a correctness regression.
    assert accelerated.counts == reference.counts

    numpy_median = timed_numpy(1 if SMOKE else 3)
    benchmark.pedantic(
        execute, args=(program_12q, calibration),
        kwargs={**kwargs, "array_backend": backend_name},
        rounds=1 if SMOKE else 5, iterations=1)
    accelerated_median = benchmark.stats.stats.median
    speedup = numpy_median / accelerated_median
    benchmark.extra_info["speedup"] = speedup
    record(benchmark,
           f"rand{N_QUBITS}q{N_GATES}g @{TRIALS} trials: "
           f"numpy={numpy_median * 1e3:.1f} ms  "
           f"{backend_name}={accelerated_median * 1e3:.1f} ms  "
           f"speedup={speedup:.2f}x")
    if not SMOKE:
        assert speedup >= 1.3


def test_chunk_budget_invariance(benchmark, program_12q, calibration,
                                 monkeypatch):
    """Squeezing the chunk budget must not change counts (numpy path,
    so it runs — and means something — on accelerator-less CI)."""
    kwargs = {"trials": TRIALS, "seed": 0, "array_backend": "numpy"}
    reference = execute(program_12q, calibration, **kwargs)
    monkeypatch.setenv(CHUNK_ENV, "1")  # 65536 amplitudes = 16 plans @12q
    squeezed = benchmark.pedantic(
        execute, args=(program_12q, calibration), kwargs=kwargs,
        rounds=1, iterations=1)
    assert squeezed.counts == reference.counts
    record(benchmark,
           f"chunk-budget invariance: {sum(reference.counts.values())} "
           f"trials identical at default vs 1 MiB budget")
