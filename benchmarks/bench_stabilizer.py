"""Bench: the stabilizer engine's large-n Clifford tier.

The dense engines stop at the amplitude budget (~22 qubits of
complex128 under the default chunk cap); the stabilizer engine samples
noisy Clifford programs in polynomial time. This bench runs the
50-100+ qubit GHZ-mirror grid end to end through the sweep runtime on
the ``grid144`` preset — compile, trace lowering, symbolic tableau
pass, vectorized shot sampling — and pins the two contracts that make
the tier trustworthy: serial vs parallel sweeps are bit-identical, and
``engine="auto"`` reproduces the stabilizer counts exactly on Clifford
input.

Below the sweep, :func:`test_stabilizer_stages` records the ms of each
step of one 2048-shot sample of perfbench ``scale_ladder``'s 30-, 60-
and 100-qubit GHZ-mirror traces (30 only in smoke mode): the
occurrence and Pauli-choice draw, the packed fold, the readout flips,
the count rendering, and the one-off ``StabilizerProgram`` lowering.
It asserts only that the stages reassemble the engine's own counts.
"""

import time

import numpy as np
from conftest import SMOKE, record

from repro.backend import get_backend
from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import CalibrationGenerator, square_topology
from repro.programs import ghz_mirror
from repro.runtime import SweepCell, run_sweep
from repro.simulator import NoiseModel
from repro.simulator.batch import draw_choices, render_readout_bits
from repro.simulator.executor import lowered_trace
from repro.simulator.stabilizer.program import (
    StabilizerProgram,
    distinct_strings,
    sample_stabilizer_counts,
)

SIZES = (30, 50) if SMOKE else (50, 60, 100)
TRIALS = 256 if SMOKE else 4096

#: perfbench scale_ladder's stabilizer cells: sizes, shots, device seed.
STAGE_QUBITS = (30,) if SMOKE else (30, 60, 100)
STAGE_SHOTS = 2048
STAGE_SEED = 2019
STAGE_ROUNDS = 1 if SMOKE else 7


def _cells(engine: str):
    """A fresh cell list per run (cells derive state in-place)."""
    backend = get_backend("grid144")
    return [SweepCell(circuit=ghz_mirror(n), backend=backend, day=0,
                      options=CompilerOptions.greedy_e(),
                      expected="0" * n, trials=TRIALS, seed=11,
                      engine=engine, key=(engine, n))
            for n in SIZES]


def test_stabilizer_large_n_sweep(benchmark):
    """End-to-end noisy GHZ-mirror sweep at dense-impossible sizes."""
    sweep = benchmark.pedantic(
        run_sweep, args=(_cells("stabilizer"),), kwargs={"strict": True},
        rounds=1, iterations=1)
    assert all(r.ok for r in sweep)
    assert all(0.0 <= r.success_rate <= 1.0 for r in sweep)
    # Parallel fan-out must reproduce the serial counts bit for bit.
    fanned = run_sweep(_cells("stabilizer"), workers=2, strict=True)
    for serial, parallel in zip(sweep, fanned):
        assert serial.execution.counts == parallel.execution.counts
    rows = "\n".join(
        f"  GHZ{n}m @{TRIALS} trials: success={r.success_rate:.4f}"
        for n, r in zip(SIZES, sweep))
    record(benchmark,
           "stabilizer large-n sweep (grid144, serial == 2-worker):\n"
           + rows)


def test_auto_routes_clifford_to_stabilizer(benchmark):
    """``engine="auto"`` must match ``engine="stabilizer"`` exactly."""
    reference = run_sweep(_cells("stabilizer"), strict=True)
    routed = benchmark.pedantic(
        run_sweep, args=(_cells("auto"),), kwargs={"strict": True},
        rounds=1, iterations=1)
    for direct, auto in zip(reference, routed):
        assert direct.execution.counts == auto.execution.counts
    record(benchmark,
           f"auto-routing: {len(SIZES)} Clifford cells "
           f"(max {max(SIZES)} qubits) bit-identical to the "
           f"stabilizer engine")


def _ghz_mirror_trace(n_qubits: int):
    """scale_ladder's GHZ-mirror cell: GreedyE* on snapshot 0 of the
    device-seed-2019 square grid, lowered under its noise model."""
    calibration = CalibrationGenerator(square_topology(n_qubits),
                                       seed=STAGE_SEED).snapshot(0)
    compiled = compile_circuit(ghz_mirror(n_qubits), calibration,
                               CompilerOptions.greedy_e())
    return lowered_trace(compiled, calibration, NoiseModel(calibration))


def _staged_sample(trace, program, rng):
    """``sample_stabilizer_counts``, one step at a time: the counts and
    each step's seconds (draw, fold, readout, count)."""
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())

    occurred = rng.random((STAGE_SHOTS, trace.n_sites)) < trace.site_prob
    fired = draw_choices(trace, occurred, rng)
    coins = (rng.random((STAGE_SHOTS, program.n_coins)) < 0.5
             ).astype(np.uint8)
    lap()
    bits = program.measured_bits(coins, *fired, STAGE_SHOTS)
    lap()
    rendered = render_readout_bits(trace, bits, rng)
    lap()
    strings, counts, _ = distinct_strings(trace, rendered)
    counts = dict(zip(strings, counts.tolist()))
    lap()
    return counts, np.diff(clock)


def test_stabilizer_stages(benchmark):
    """Best-of-rounds ms per sampling stage, and the lowering, per
    GHZ-mirror size at 2048 shots."""
    def stages():
        rows = {}
        for n_qubits in STAGE_QUBITS:
            trace = _ghz_mirror_trace(n_qubits)
            lowering = []
            for _ in range(STAGE_ROUNDS):
                start = time.perf_counter()
                program = StabilizerProgram(trace)
                lowering.append(time.perf_counter() - start)
            laps = []
            for _ in range(STAGE_ROUNDS):
                counts, seconds = _staged_sample(
                    trace, program, np.random.default_rng(STAGE_SEED))
                laps.append(seconds)
            rows[n_qubits] = (np.min(laps, axis=0), min(lowering), counts,
                              trace)
        return rows

    rows = benchmark.pedantic(stages, rounds=1, iterations=1)
    names = ("draw", "fold", "readout", "count")
    benchmark.extra_info["stage_ms"] = {
        n: dict(zip(names + ("lowering",),
                    [round(float(t) * 1e3, 3) for t in (*laps, lowering)]))
        for n, (laps, lowering, _, _) in rows.items()}
    record(benchmark, "\n".join(
        f"GHZ{n}m @{STAGE_SHOTS} shots: "
        + "  ".join(f"{name} {t * 1e3:.2f} ms"
                    for name, t in zip(names, laps))
        + f"  | lowering {lowering * 1e3:.2f} ms"
        for n, (laps, lowering, _, _) in rows.items()))
    for n, (_, _, counts, trace) in rows.items():
        expected = sample_stabilizer_counts(
            trace, STAGE_SHOTS, np.random.default_rng(STAGE_SEED))
        assert list(counts.items()) == list(expected.items()), n
