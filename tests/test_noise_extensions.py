"""Tests for the noise-model extensions: readout asymmetry, crosstalk."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import CalibrationError
from repro.hardware import (
    Calibration,
    QubitCalibration,
    default_ibmq16_calibration,
    ibmq16_topology,
    uniform_calibration,
)
from repro.ir.circuit import Circuit
from repro.programs import build_benchmark, expected_output
from repro.simulator import NoiseModel, execute

from trial_reference import sample_readout_flip


class TestReadoutAsymmetry:
    def record(self, asym):
        return QubitCalibration(t1_us=90, t2_us=70, readout_error=0.1,
                                single_qubit_error=0.001,
                                readout_asymmetry=asym)

    def test_flip_probabilities(self):
        rec = self.record(0.5)
        assert rec.readout_flip_probability(1) == pytest.approx(0.15)
        assert rec.readout_flip_probability(0) == pytest.approx(0.05)
        # Symmetric average preserved.
        avg = (rec.readout_flip_probability(0)
               + rec.readout_flip_probability(1)) / 2
        assert avg == pytest.approx(rec.readout_error)

    def test_zero_asymmetry_is_symmetric(self):
        rec = self.record(0.0)
        assert rec.readout_flip_probability(0) == \
            rec.readout_flip_probability(1)

    def test_invalid_asymmetry_rejected(self):
        with pytest.raises(CalibrationError):
            self.record(1.0)
        with pytest.raises(CalibrationError):
            QubitCalibration(t1_us=90, t2_us=70, readout_error=0.6,
                             single_qubit_error=0.001,
                             readout_asymmetry=0.9)

    def test_json_roundtrip_preserves_asymmetry(self):
        topo = ibmq16_topology()
        cal = uniform_calibration(topo)
        qubits = {q: self.record(0.3) for q in topo.iter_qubits()}
        asym_cal = Calibration(topology=topo, qubits=qubits,
                               edges=cal.edges, label="asym")
        back = Calibration.from_json(asym_cal.to_json())
        assert back.qubits[0].readout_asymmetry == pytest.approx(0.3)

    def test_sampled_flip_rates_follow_bit(self):
        topo = ibmq16_topology()
        base = uniform_calibration(topo)
        qubits = {q: self.record(0.8) for q in topo.iter_qubits()}
        cal = Calibration(topology=topo, qubits=qubits, edges=base.edges)
        noise = NoiseModel(cal, gate_errors=False, decoherence=False)
        rng = np.random.default_rng(0)
        flips1 = sum(sample_readout_flip(noise, 0, rng, bit=1)
                     for _ in range(4000))
        flips0 = sum(sample_readout_flip(noise, 0, rng, bit=0)
                     for _ in range(4000))
        assert flips1 > 2.5 * flips0  # 0.18 vs 0.02 expected

    def test_asymmetry_biases_measured_ones(self):
        """With strong |1>-flips, the all-ones answer suffers more."""
        topo = ibmq16_topology()
        base = uniform_calibration(topo, cnot_error=0.0,
                                   single_qubit_error=0.0)
        skewed = {q: self.record(0.9) for q in topo.iter_qubits()}
        cal = Calibration(topology=topo, qubits=skewed, edges=base.edges)
        circuit = Circuit(2, 2).x(0).x(1).measure_all()
        program = compile_circuit(circuit, cal,
                                  CompilerOptions.greedy_e())
        noise = NoiseModel(cal, gate_errors=False, decoherence=False)
        result = execute(program, cal, trials=4000, seed=1, expected="11",
                         noise_model=noise)
        # p(correct) = (1 - 0.19)^2 ~ 0.66 rather than 0.81 symmetric.
        assert result.success_rate == pytest.approx(0.81 ** 2, abs=0.04)


class TestCrosstalk:
    def test_negative_factor_rejected(self):
        cal = default_ibmq16_calibration()
        with pytest.raises(ValueError):
            NoiseModel(cal, crosstalk_factor=-0.5)

    def test_probability_scaling(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.04)
        noise = NoiseModel(cal, crosstalk_factor=0.5)
        from repro.ir.gates import Gate
        gate = Gate("cx", (0, 1))
        assert noise.gate_error_probability(gate) == pytest.approx(0.04)
        assert noise.gate_error_probability(gate, 2) == pytest.approx(0.08)

    def test_probability_capped(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.3)
        noise = NoiseModel(cal, crosstalk_factor=10.0)
        from repro.ir.gates import Gate
        assert noise.gate_error_probability(Gate("cx", (0, 1)), 5) == 0.5

    def test_crosstalk_lowers_success_of_parallel_programs(self):
        """HS6 runs its CZ pairs concurrently on nearby edges; turning
        crosstalk on must reduce its success rate."""
        cal = default_ibmq16_calibration()
        program = compile_circuit(build_benchmark("HS6"), cal,
                                  CompilerOptions.r_smt_star())
        clean = execute(program, cal, trials=1024, seed=3,
                        expected=expected_output("HS6"))
        noisy = execute(program, cal, trials=1024, seed=3,
                        expected=expected_output("HS6"),
                        noise_model=NoiseModel(cal, crosstalk_factor=3.0))
        assert noisy.success_rate < clean.success_rate

    def test_serial_program_unaffected(self):
        """A single-CNOT-chain program has no concurrent 2q gates, so
        crosstalk cannot change its error exposure."""
        cal = default_ibmq16_calibration()
        circuit = Circuit(2, 2).cx(0, 1).cx(0, 1).cx(0, 1).measure_all()
        program = compile_circuit(circuit, cal, CompilerOptions.greedy_e())
        a = execute(program, cal, trials=512, seed=4, expected="00")
        b = execute(program, cal, trials=512, seed=4, expected="00",
                    noise_model=NoiseModel(cal, crosstalk_factor=5.0))
        assert a.counts == b.counts
