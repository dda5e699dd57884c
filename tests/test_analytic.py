"""Tests for the analytic success predictor vs the Monte-Carlo executor."""

import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.hardware import (
    ReliabilityTables,
    default_ibmq16_calibration,
    ibmq16_topology,
    uniform_calibration,
)
from repro.programs import build_benchmark, expected_output
from repro.simulator import NoiseModel, execute, ideal_noise_model

from analytic_reference import estimate_success_analytic


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


class TestAnalyticEstimate:
    def test_noise_free_predicts_one(self, cal):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star())
        est = estimate_success_analytic(program, cal,
                                        noise_model=ideal_noise_model(cal))
        assert est.success == pytest.approx(1.0)

    def test_factorization(self, cal):
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.r_smt_star())
        est = estimate_success_analytic(program, cal)
        assert est.success == pytest.approx(
            est.gate_factor * est.decoherence_factor * est.readout_factor)
        assert 0 < est.gate_factor <= 1
        assert 0 < est.decoherence_factor <= 1
        assert 0 < est.readout_factor <= 1

    def test_readout_only_exact(self):
        """With only readout errors the analytic model is exact."""
        uni = uniform_calibration(ibmq16_topology(), readout_error=0.1,
                                  cnot_error=0.0, single_qubit_error=0.0)
        program = compile_circuit(build_benchmark("BV4"), uni,
                                  CompilerOptions.r_smt_star())
        noise = NoiseModel(uni, gate_errors=False, decoherence=False)
        est = estimate_success_analytic(program, uni, noise_model=noise)
        assert est.success == pytest.approx(0.9 ** 3)

    @pytest.mark.parametrize("bench", ["BV4", "HS4", "Toffoli", "Adder"])
    def test_tracks_monte_carlo(self, cal, bench):
        """The analytic estimate lands within a few points of the
        executor (it ignores error cancellation and unreachable
        errors, so allow a modest band)."""
        program = compile_circuit(build_benchmark(bench), cal,
                                  CompilerOptions.r_smt_star())
        est = estimate_success_analytic(program, cal)
        result = execute(program, cal, trials=2048, seed=5,
                         expected=expected_output(bench))
        assert est.success == pytest.approx(result.success_rate, abs=0.10)

    def test_ranks_mappings_like_the_executor(self, cal):
        """A bad (Qiskit) mapping must score below a good (R-SMT*) one."""
        circuit = build_benchmark("BV8")
        good = compile_circuit(circuit, cal, CompilerOptions.r_smt_star())
        bad = compile_circuit(circuit, cal, CompilerOptions.qiskit())
        assert estimate_success_analytic(good, cal).success > \
            estimate_success_analytic(bad, cal).success
