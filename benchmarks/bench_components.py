"""Micro-benchmarks for the core components (compile + simulate paths).

Unlike the ``bench_fig*`` modules (which regenerate paper artifacts
once), these measure steady-state throughput of the hot paths with
multiple pytest-benchmark rounds.
"""

import pytest

from conftest import measure

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    route_cost,
    square_topology,
)
from repro.programs import build_benchmark, expected_output, random_circuit
from repro.simulator import execute


@pytest.mark.parametrize("variant,options", [
    ("qiskit", CompilerOptions.qiskit()),
    ("r-smt*", CompilerOptions.r_smt_star()),
    ("greedye*", CompilerOptions.greedy_e()),
    ("greedyv*", CompilerOptions.greedy_v()),
])
def test_compile_bv4(benchmark, calibration, tables, variant, options):
    circuit = build_benchmark("BV4")
    program = measure(benchmark, compile_circuit, circuit, calibration,
                      options, tables=tables)
    assert len(program.placement) == 4


def test_compile_tsmt_star_toffoli(benchmark, calibration, tables):
    circuit = build_benchmark("Toffoli")
    options = CompilerOptions.t_smt_star()
    program = benchmark.pedantic(compile_circuit,
                                 args=(circuit, calibration, options),
                                 kwargs={"tables": tables},
                                 rounds=3, iterations=1)
    assert program.mapping.optimal


def test_reliability_tables_construction(benchmark):
    """Every Best-Path row of the 12x11 grid perfbench's scale_ladder
    routes its 128-qubit programs on, from a fresh table."""
    calibration = CalibrationGenerator(square_topology(128),
                                       seed=2019).snapshot(0)
    n = calibration.topology.n_qubits

    def fill_rows():
        tables = ReliabilityTables(calibration)
        for source in range(n):
            tables.best_path(source, (source + 1) % n)
        return tables

    tables = measure(benchmark, fill_rows)
    cost = tables.best_path(0, n - 1)
    assert cost == route_cost(calibration, list(cost.path))


def test_greedy_mapping_large_circuit(benchmark, calibration, tables):
    circuit = random_circuit(16, 1000, seed=3)
    options = CompilerOptions.greedy_e()
    program = measure(benchmark, compile_circuit, circuit, calibration,
                      options, tables=tables)
    assert len(program.placement) == 16


def test_simulate_bv4_256_trials(benchmark, calibration, tables):
    program = compile_circuit(build_benchmark("BV4"), calibration,
                              CompilerOptions.r_smt_star(), tables=tables)
    result = benchmark.pedantic(
        execute, args=(program, calibration),
        kwargs={"trials": 256, "seed": 0,
                "expected": expected_output("BV4")},
        rounds=3, iterations=1)
    assert 0.0 <= result.success_rate <= 1.0


def test_qasm_emission(benchmark, calibration, tables):
    program = compile_circuit(build_benchmark("HS6"), calibration,
                              CompilerOptions.r_smt_star(), tables=tables)
    text = measure(benchmark, program.qasm)
    assert text.startswith("OPENQASM 2.0;")
