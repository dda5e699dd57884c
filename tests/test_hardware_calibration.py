"""Tests for calibration records, generator statistics, and persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CalibrationError
from repro.hardware.calibration import (
    Calibration,
    EdgeCalibration,
    QubitCalibration,
    uniform_calibration,
)
from repro.hardware.calibration_gen import (
    CalibrationGenerator,
    NoiseProfile,
    default_ibmq16_calibration,
)
from repro.hardware.topology import GridTopology, ibmq16_topology


class TestRecords:
    def test_qubit_record_validation(self):
        with pytest.raises(CalibrationError):
            QubitCalibration(t1_us=-1, t2_us=50, readout_error=0.1,
                             single_qubit_error=0.001)
        with pytest.raises(CalibrationError):
            QubitCalibration(t1_us=90, t2_us=70, readout_error=1.5,
                             single_qubit_error=0.001)

    def test_edge_record_validation(self):
        with pytest.raises(CalibrationError):
            EdgeCalibration(cnot_error=-0.1, cnot_duration_slots=3)
        with pytest.raises(CalibrationError):
            EdgeCalibration(cnot_error=0.05, cnot_duration_slots=0)

    def test_coherence_slots(self):
        rec = QubitCalibration(t1_us=90, t2_us=80, readout_error=0.05,
                               single_qubit_error=0.001)
        assert rec.coherence_slots == pytest.approx(1000.0)  # 80us / 80ns


class TestCalibrationContainer:
    def test_uniform_calibration_covers_machine(self):
        cal = uniform_calibration(ibmq16_topology())
        assert len(cal.qubits) == 16
        assert len(cal.edges) == 22

    def test_accessors(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.05,
                                  readout_error=0.08)
        assert cal.cnot_error(0, 1) == pytest.approx(0.05)
        assert cal.cnot_error(1, 0) == pytest.approx(0.05)  # undirected
        assert cal.cnot_reliability(0, 1) == pytest.approx(0.95)
        assert cal.readout_reliability(3) == pytest.approx(0.92)
        assert cal.swap_reliability(0, 1) == pytest.approx(0.95 ** 3)
        assert cal.swap_duration(0, 1) == pytest.approx(9.0)

    def test_missing_edge_rejected(self):
        cal = uniform_calibration(ibmq16_topology())
        with pytest.raises(CalibrationError):
            cal.edge(0, 5)  # not adjacent

    def test_incomplete_records_rejected(self):
        topo = GridTopology(2, 2)
        cal = uniform_calibration(topo)
        bad_qubits = dict(cal.qubits)
        del bad_qubits[0]
        with pytest.raises(CalibrationError):
            Calibration(topology=topo, qubits=bad_qubits, edges=cal.edges)

    def test_means_and_variation(self):
        cal = uniform_calibration(ibmq16_topology(), cnot_error=0.04)
        assert cal.mean_cnot_error() == pytest.approx(0.04)
        assert cal.variation("cnot_error") == pytest.approx(1.0)
        with pytest.raises(CalibrationError):
            cal.variation("nonsense")

    def test_json_roundtrip(self):
        cal = default_ibmq16_calibration(day=3)
        back = Calibration.from_json(cal.to_json())
        assert back.label == cal.label
        assert back.topology.n_qubits == cal.topology.n_qubits
        for q in cal.qubits:
            assert back.qubits[q] == cal.qubits[q]
        for e in cal.edges:
            assert back.edges[e] == cal.edges[e]


class TestGenerator:
    def test_deterministic_per_seed_and_day(self):
        gen1 = CalibrationGenerator(ibmq16_topology(), seed=5)
        gen2 = CalibrationGenerator(ibmq16_topology(), seed=5)
        assert gen1.snapshot(4).to_dict() == gen2.snapshot(4).to_dict()

    def test_seeds_differ(self):
        gen1 = CalibrationGenerator(ibmq16_topology(), seed=5)
        gen2 = CalibrationGenerator(ibmq16_topology(), seed=6)
        assert gen1.snapshot(0).to_dict() != gen2.snapshot(0).to_dict()

    def test_days_differ_but_correlate(self):
        gen = CalibrationGenerator(ibmq16_topology(), seed=5)
        d0, d1 = gen.snapshot(0), gen.snapshot(1)
        assert d0.to_dict() != d1.to_dict()
        # Static quality dominates: the best/worst edges mostly persist.
        worst0 = max(d0.edges, key=lambda e: d0.edges[e].cnot_error)
        rank1 = sorted(d1.edges, key=lambda e: -d1.edges[e].cnot_error)
        assert worst0 in rank1[:8]

    def test_days_iterator(self):
        gen = CalibrationGenerator(ibmq16_topology(), seed=5)
        labels = [c.label for c in gen.days(3)]
        assert labels == ["day0", "day1", "day2"]

    def test_negative_day_rejected(self):
        """No calibration is posted before day 0: a negative day must
        not pass off the drift-free state as ``day-1``."""
        gen = CalibrationGenerator(ibmq16_topology(), seed=5)
        with pytest.raises(CalibrationError, match="day must be >= 0"):
            gen.snapshot(-1)
        with pytest.raises(CalibrationError, match="day must be >= 0"):
            gen.days(3, start=-2)

    def test_statistics_near_paper_means(self):
        gen = CalibrationGenerator(ibmq16_topology(), seed=11)
        cnot, readout, t2 = [], [], []
        for cal in gen.days(20):
            cnot.append(cal.mean_cnot_error())
            readout.append(cal.mean_readout_error())
            t2.extend(r.t2_us for r in cal.qubits.values())
        assert 0.02 <= sum(cnot) / len(cnot) <= 0.08
        assert 0.04 <= sum(readout) / len(readout) <= 0.11
        assert 40 <= sum(t2) / len(t2) <= 110

    def test_error_rates_clamped(self):
        profile = NoiseProfile(cnot_sigma=3.0, max_error_rate=0.35)
        gen = CalibrationGenerator(ibmq16_topology(), seed=0,
                                   profile=profile)
        cal = gen.snapshot(0)
        assert all(0 < e.cnot_error <= 0.35 for e in cal.edges.values())

    @given(day=st.integers(0, 12))
    @settings(max_examples=10, deadline=None)
    def test_every_snapshot_is_valid(self, day):
        cal = CalibrationGenerator(GridTopology(3, 3), seed=1).snapshot(day)
        assert all(r.t2_us > 0 for r in cal.qubits.values())
        assert all(0 <= r.readout_error < 1 for r in cal.qubits.values())
        assert all(e.cnot_duration_slots >= 1
                   for e in cal.edges.values())
