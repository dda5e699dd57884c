"""Tests for the statevector engine, noise model, and executor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationError
from repro.hardware import (
    ReliabilityTables,
    default_ibmq16_calibration,
    ibmq16_topology,
    uniform_calibration,
)
from repro.ir.circuit import Circuit
from repro.programs import build_benchmark, expected_output
from repro.simulator import (
    NoiseModel,
    StateVector,
    distribution_overlap,
    execute,
    empirical_distribution,
    ideal_noise_model,
    success_rate,
    total_variation_distance,
)

from trial_reference import sample_gate_error, sample_readout_flip


class TestStateVector:
    def test_initial_state(self):
        probs = StateVector(2).probabilities()
        assert probs[0] == pytest.approx(1.0)

    def test_x_flips(self):
        s = StateVector(2)
        s.apply_gate("x", (1,))
        assert s.probabilities()[1] == pytest.approx(1.0)  # |01> = index 1

    def test_bit_ordering_qubit0_is_msb(self):
        s = StateVector(2)
        s.apply_gate("x", (0,))
        assert s.probabilities()[2] == pytest.approx(1.0)  # |10> = index 2
        assert s.bits_of(2) == (1, 0)

    def test_h_uniform(self):
        s = StateVector(1)
        s.apply_gate("h", (0,))
        assert np.allclose(s.probabilities(), [0.5, 0.5])

    def test_bell_state(self):
        s = StateVector(2)
        s.apply_gate("h", (0,))
        s.apply_gate("cx", (0, 1))
        probs = s.probabilities()
        assert probs[0] == pytest.approx(0.5)
        assert probs[3] == pytest.approx(0.5)

    def test_cx_direction(self):
        s = StateVector(2)
        s.apply_gate("x", (1,))      # target=1 set; control=0 clear
        s.apply_gate("cx", (0, 1))   # no-op
        assert s.probabilities()[1] == pytest.approx(1.0)
        s = StateVector(2)
        s.apply_gate("x", (0,))
        s.apply_gate("cx", (0, 1))   # fires
        assert s.probabilities()[3] == pytest.approx(1.0)

    def test_swap_gate(self):
        s = StateVector(2)
        s.apply_gate("x", (0,))
        s.apply_gate("swap", (0, 1))
        assert s.probabilities()[1] == pytest.approx(1.0)

    def test_nonadjacent_qubits_2q_gate(self):
        s = StateVector(3)
        s.apply_gate("x", (0,))
        s.apply_gate("cx", (0, 2))
        assert s.probabilities()[0b101] == pytest.approx(1.0)

    def test_reversed_qubit_order_2q_gate(self):
        s = StateVector(2)
        s.apply_gate("x", (1,))
        s.apply_gate("cx", (1, 0))   # control is qubit 1
        assert s.probabilities()[3] == pytest.approx(1.0)

    def test_norm_preserved_random_gates(self):
        from repro.programs import random_circuit
        circuit = random_circuit(4, 60, seed=9, measure=False)
        s = StateVector(4)
        for g in circuit:
            s.apply_gate(g.name, g.qubits, param=g.param)
        assert s.probabilities().sum() == pytest.approx(1.0)

    def test_sampling_distribution(self):
        s = StateVector(1)
        s.apply_gate("h", (0,))
        rng = np.random.default_rng(0)
        ones = sum(s.sample(rng)[0] for _ in range(2000))
        assert 850 < ones < 1150

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(SimulationError):
            StateVector(2).apply_gate("x", (2,))

    def test_too_many_qubits_rejected(self):
        with pytest.raises(SimulationError):
            StateVector(30)

    def test_fidelity(self):
        a, b = StateVector(2), StateVector(2)
        assert a.fidelity_with(b) == pytest.approx(1.0)
        b.apply_gate("x", (0,))
        assert a.fidelity_with(b) == pytest.approx(0.0)


class TestNoiseModel:
    def test_gate_error_probabilities(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.05,
                                  single_qubit_error=0.002)
        noise = NoiseModel(cal)
        from repro.ir.gates import Gate
        assert noise.gate_error_probability(Gate("cx", (0, 1))) == 0.05
        assert noise.gate_error_probability(Gate("h", (0,))) == 0.002
        assert noise.gate_error_probability(
            Gate("measure", (0,), cbit=0)) == 0.0

    def test_disabled_mechanisms(self):
        cal = uniform_calibration(ibmq16_topology())
        noise = ideal_noise_model(cal)
        from repro.ir.gates import Gate
        rng = np.random.default_rng(0)
        assert noise.gate_error_probability(Gate("cx", (0, 1))) == 0.0
        assert noise.idle_rates(0, 100.0).total == 0.0
        assert not any(sample_readout_flip(noise, 0, rng)
                       for _ in range(100))

    def test_idle_rates_grow_with_time(self):
        cal = uniform_calibration(ibmq16_topology(), t2_us=50.0)
        noise = NoiseModel(cal)
        short = noise.idle_rates(0, 10.0).total
        long = noise.idle_rates(0, 1000.0).total
        assert 0 < short < long < 1.0

    def test_idle_rates_zero_for_zero_time(self):
        cal = uniform_calibration(ibmq16_topology())
        assert NoiseModel(cal).idle_rates(0, 0.0).total == 0.0

    def test_gate_error_sampling_rate(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.5)
        noise = NoiseModel(cal)
        from repro.ir.gates import Gate
        rng = np.random.default_rng(1)
        hits = sum(bool(sample_gate_error(noise, Gate("cx", (0, 1)), rng))
                   for _ in range(2000))
        assert 900 < hits < 1100

    def test_readout_flip_rate(self):
        cal = uniform_calibration(ibmq16_topology(), readout_error=0.25)
        noise = NoiseModel(cal)
        rng = np.random.default_rng(2)
        flips = sum(sample_readout_flip(noise, 0, rng) for _ in range(4000))
        assert 850 < flips < 1150


class TestSuccessMetrics:
    def test_success_rate(self):
        assert success_rate({"00": 60, "11": 40}, "00") == pytest.approx(0.6)

    def test_success_rate_missing_outcome(self):
        assert success_rate({"11": 10}, "00") == 0.0

    def test_empty_counts_rejected(self):
        with pytest.raises(SimulationError):
            success_rate({}, "0")

    def test_distribution_overlap_identical(self):
        p = {"0": 0.5, "1": 0.5}
        assert distribution_overlap(p, p) == pytest.approx(1.0)

    def test_distribution_overlap_disjoint(self):
        assert distribution_overlap({"0": 1.0}, {"1": 1.0}) == 0.0

    def test_tvd(self):
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == 1.0
        assert total_variation_distance({"0": 0.5, "1": 0.5},
                                        {"0": 0.5, "1": 0.5}) == 0.0

    def test_empirical_distribution(self):
        dist = empirical_distribution({"0": 3, "1": 1})
        assert dist == {"0": 0.75, "1": 0.25}


class TestExecutor:
    @pytest.fixture(scope="class")
    def cal(self):
        return default_ibmq16_calibration()

    @pytest.fixture(scope="class")
    def program(self, cal):
        return compile_circuit(build_benchmark("BV4"), cal,
                               CompilerOptions.r_smt_star())

    def test_noise_free_execution_is_perfect(self, cal, program):
        result = execute(program, cal, trials=64, seed=0,
                         expected=expected_output("BV4"),
                         noise_model=ideal_noise_model(cal))
        assert result.success_rate == pytest.approx(1.0)

    def test_noisy_execution_degrades(self, cal, program):
        result = execute(program, cal, trials=512, seed=0,
                         expected=expected_output("BV4"))
        assert 0.3 < result.success_rate < 0.95

    def test_reproducible(self, cal, program):
        a = execute(program, cal, trials=128, seed=5,
                    expected=expected_output("BV4"))
        b = execute(program, cal, trials=128, seed=5,
                    expected=expected_output("BV4"))
        assert a.counts == b.counts

    def test_counts_sum_to_trials(self, cal, program):
        result = execute(program, cal, trials=200, seed=1,
                         expected=expected_output("BV4"))
        assert sum(result.counts.values()) == 200

    def test_overlap_close_to_success_for_deterministic(self, cal, program):
        result = execute(program, cal, trials=512, seed=0,
                         expected=expected_output("BV4"))
        assert result.overlap == pytest.approx(result.success_rate,
                                               abs=1e-9)

    def test_ideal_distribution_deterministic_benchmark(self, cal, program):
        result = execute(program, cal, trials=16, seed=0,
                         expected=expected_output("BV4"))
        assert result.ideal_distribution == \
            {expected_output("BV4"): pytest.approx(1.0)}

    def test_success_requires_expected(self, cal, program):
        result = execute(program, cal, trials=16, seed=0)
        with pytest.raises(SimulationError):
            _ = result.success_rate

    def test_zero_trials_rejected(self, cal, program):
        with pytest.raises(SimulationError):
            execute(program, cal, trials=0)

    def test_readout_only_noise_bounds_success(self, cal):
        """With only readout errors, success = prod(1 - readout_err)."""
        uni = uniform_calibration(ibmq16_topology(), readout_error=0.1,
                                  cnot_error=0.0, single_qubit_error=0.0)
        program = compile_circuit(build_benchmark("BV4"), uni,
                                  CompilerOptions.r_smt_star())
        noise = NoiseModel(uni, gate_errors=False, decoherence=False)
        result = execute(program, uni, trials=3000, seed=3,
                         expected=expected_output("BV4"),
                         noise_model=noise)
        assert result.success_rate == pytest.approx(0.9 ** 3, abs=0.03)

    def test_more_noise_means_less_success(self):
        results = []
        for err in (0.0, 0.05, 0.15):
            cal = uniform_calibration(ibmq16_topology(), cnot_error=err,
                                      readout_error=err)
            program = compile_circuit(build_benchmark("Toffoli"), cal,
                                      CompilerOptions.r_smt_star())
            r = execute(program, cal, trials=512, seed=4,
                        expected=expected_output("Toffoli"))
            results.append(r.success_rate)
        assert results[0] == pytest.approx(1.0, abs=0.05)
        assert results[0] > results[1] > results[2]
