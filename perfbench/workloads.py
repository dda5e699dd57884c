"""The benchmark's four seeded workloads, built through the public API.

Each workload function takes two seeds and returns the ``SweepCell``
grid the program under test receives:

* the *device seed* drives ``CalibrationGenerator`` (the machine
  snapshots) and the random circuits of ``scale_ladder``. It decides how
  much work a grid is: summed search nodes and simulated trajectories
  move by 20-60% between device seeds, so it stays fixed while timings
  are compared, and a held-out device seed checks a claim on inputs it
  was not tuned on;
* the *shot seed* drives every cell's executor RNG (except on
  ``scale_ladder``, see there).

Every cell names its engine and array backend, so an installed optional
backend or a changed process default cannot change what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.compiler import CompilerOptions
from repro.hardware import CalibrationGenerator, ibmq16_topology, \
    square_topology
from repro.mitigation import ZneStrategy, strategy_from_spec
from repro.programs import benchmark_names, get_benchmark, ghz_mirror, \
    random_circuit
from repro.runtime import SweepCell

#: The paper's shot count (fig. 5) and the repository's sweep default.
PAPER_SHOTS = 8192
SWEEP_SHOTS = 1024

DENSE = dict(engine="batched", array_backend="numpy")


@dataclass
class Workload:
    """One generated grid.

    Attributes:
        cells: The grid, in the order ``run_sweep`` receives it.
        uses_cache_dir: Run both passes against one fresh cache
            directory (the disk store's write path, then its read path).
    """

    cells: List[SweepCell]
    uses_cache_dir: bool = False


def _table2():
    """(name, circuit, expected output) for the 12 Table-2 programs."""
    specs = [get_benchmark(name) for name in benchmark_names()]
    return [(spec.name, spec.build(), spec.expected_output)
            for spec in specs]


def _ibmq16(seed: int) -> CalibrationGenerator:
    return CalibrationGenerator(ibmq16_topology(), seed=seed)


def fig5_shots(device_seed: int, seed: int) -> Workload:
    """Table 2 x {Qiskit, T-SMT*(1bp), R-SMT*(w=0.5)} at 8192 shots."""
    calibration = _ibmq16(device_seed).snapshot(0)
    configs = [CompilerOptions.qiskit(),
               CompilerOptions.t_smt_star(routing="1bp"),
               CompilerOptions.r_smt_star(omega=0.5)]
    cells = [SweepCell(circuit=circuit, calibration=calibration,
                       options=options, expected=expected,
                       trials=PAPER_SHOTS, seed=seed,
                       key=(name, options.variant), **DENSE)
             for name, circuit, expected in _table2()
             for options in configs]
    return Workload(cells)


def fig6_week(device_seed: int, seed: int) -> Workload:
    """Table 2 x {T-SMT*, R-SMT*} x 7 daily snapshots, recompiled daily."""
    configs = [CompilerOptions.t_smt_star(routing="1bp"),
               CompilerOptions.r_smt_star(omega=0.5)]
    programs = _table2()
    cells = [SweepCell(circuit=circuit, calibration=calibration,
                       options=options, expected=expected,
                       trials=SWEEP_SHOTS, seed=seed + day,
                       key=(name, options.variant, day), **DENSE)
             for day, calibration in enumerate(_ibmq16(device_seed).days(7))
             for name, circuit, expected in programs
             for options in configs]
    return Workload(cells)


def mitigation_cached(device_seed: int, seed: int) -> Workload:
    """Table 2 x {T-SMT*, R-SMT*} x {zne, readout, readout+zne}."""
    calibration = _ibmq16(device_seed).snapshot(0)
    configs = [CompilerOptions.t_smt_star(routing="1bp"),
               CompilerOptions.r_smt_star(omega=0.5)]
    strategies = [ZneStrategy(), strategy_from_spec("readout"),
                  strategy_from_spec("readout+zne")]
    cells = [SweepCell(circuit=circuit, calibration=calibration,
                       options=options, expected=expected,
                       trials=SWEEP_SHOTS, seed=seed, mitigation=strategy,
                       key=(name, options.variant, strategy.name), **DENSE)
             for name, circuit, expected in _table2()
             for options in configs
             for strategy in strategies]
    return Workload(cells, uses_cache_dir=True)


#: scale_ladder sizes: (variant, qubits, gate counts).
GREEDY_QUBITS = (4, 8, 32, 128)
GREEDY_GATES = (128, 256, 512, 1024)
SMT_QUBITS = (4, 8)
SMT_GATES = (128, 256, 512)
CLIFFORD_QUBITS = (30, 60, 100)
CLIFFORD_SHOTS = 2048


def scale_ladder(device_seed: int, seed: int) -> Workload:
    """Compile-only random circuits plus GHZ-mirror on the stabilizer.

    Every input here comes from the device seed, the stabilizer shots
    too: the GHZ-mirror cells read 0-2 successes in 2048 shots and their
    sampling memory moves by a tenth with the shot seed, so shot-seeded
    figures would swing between runs. ``seed`` changes nothing.
    """
    sizes = set(GREEDY_QUBITS) | set(SMT_QUBITS) | set(CLIFFORD_QUBITS)
    calibrations = {n: CalibrationGenerator(square_topology(max(n, 4)),
                                            seed=device_seed).snapshot(0)
                    for n in sorted(sizes)}
    cells = []
    for variant, qubits, gates, options in (
            ("greedye*", GREEDY_QUBITS, GREEDY_GATES,
             CompilerOptions.greedy_e()),
            ("r-smt*", SMT_QUBITS, SMT_GATES,
             CompilerOptions.r_smt_star(omega=0.5))):
        for n_qubits in qubits:
            for n_gates in gates:
                circuit = random_circuit(
                    n_qubits, n_gates,
                    seed=device_seed + n_qubits * 10000 + n_gates)
                cells.append(SweepCell(
                    circuit=circuit, calibration=calibrations[n_qubits],
                    options=options, simulate=False,
                    key=(variant, n_qubits, n_gates), **DENSE))
    for n_qubits in CLIFFORD_QUBITS:
        circuit = ghz_mirror(n_qubits)
        # The stabilizer engine contracts no dense state, so it takes no
        # array backend.
        cells.append(SweepCell(
            circuit=circuit, calibration=calibrations[n_qubits],
            options=CompilerOptions.greedy_e(), engine="stabilizer",
            trials=CLIFFORD_SHOTS, seed=device_seed,
            expected="0" * n_qubits,
            key=("stabilizer", n_qubits, circuit.gate_count())))
    return Workload(cells)


WORKLOADS: Dict[str, Callable[[int, int], Workload]] = {
    "fig5_shots": fig5_shots,
    "fig6_week": fig6_week,
    "mitigation_cached": mitigation_cached,
    "scale_ladder": scale_ladder,
}
