"""Tests for the stabilizer subsystem: tableau engine, auto-routing,
capacity guard, and the large-n Clifford benchmark tier."""

import time
import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.compiler import CompilerOptions, compile_circuit
from repro.exceptions import SimulationCapacityError, SimulationError
from repro.hardware import (
    CalibrationGenerator,
    default_ibmq16_calibration,
    square_topology,
)
from repro.programs import (
    build_benchmark,
    expected_output,
    ghz,
    ghz_mirror,
    large_benchmark_names,
    random_circuit,
    repetition_code,
)
from repro.runtime import SweepCell, run_sweep
from repro.simulator import (
    CLIFFORD_GATES,
    empirical_distribution,
    execute,
    first_non_clifford,
    is_clifford,
    total_variation_distance,
)
from repro.simulator.batch import CHUNK_ENV

from trial_reference import reference_execute

GREEDY = CompilerOptions.greedy_e()


@pytest.fixture(scope="module")
def calibration():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def ghz12_program(calibration):
    return compile_circuit(ghz_mirror(12), calibration, GREEDY)


@pytest.fixture(scope="module")
def ghz6_program(calibration):
    return compile_circuit(ghz_mirror(6), calibration, GREEDY)


@pytest.fixture(scope="module")
def bv8_program(calibration):
    return compile_circuit(build_benchmark("BV8"), calibration, GREEDY)


@pytest.fixture(scope="module")
def toffoli_program(calibration):
    return compile_circuit(build_benchmark("Toffoli"), calibration, GREEDY)


class TestIsClifford:
    def test_clifford_benchmarks(self):
        for name in large_benchmark_names():
            assert is_clifford(build_benchmark(name)), name

    def test_t_gate_is_not_clifford(self):
        circuit = build_benchmark("Toffoli")
        assert not is_clifford(circuit)
        gate = first_non_clifford(circuit)
        assert gate is not None and gate.name not in CLIFFORD_GATES

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n_gates=st.integers(0, 30),
           gate_set=st.sampled_from([
               ("h", "s", "cx"), ("h", "t", "cx"),
               ("x", "y", "z", "cz", "swap"),
               ("h", "x", "s", "sdg", "t", "cx", "cz"),
           ]))
    def test_agrees_with_gate_set_membership(self, seed, n_gates,
                                             gate_set):
        circuit = random_circuit(4, n_gates, seed=seed,
                                 gate_set=gate_set)
        expected = all(g.name in CLIFFORD_GATES for g in circuit.gates
                       if g.name not in ("measure", "barrier"))
        assert is_clifford(circuit) == expected
        assert (first_non_clifford(circuit) is None) == expected


class TestCrossEngine:
    """Stabilizer sampling must agree with the dense engine and the
    per-trial oracle."""

    TRIALS = 8192

    def _distributions(self, program, calibration):
        kwargs = dict(trials=self.TRIALS, seed=5)
        results = {engine: execute(program, calibration, engine=engine,
                                   **kwargs)
                   for engine in ("stabilizer", "batched")}
        results["trial"] = reference_execute(program, calibration, **kwargs)
        return {engine: empirical_distribution(r.counts)
                for engine, r in results.items()}

    @pytest.mark.parametrize("fixture", ["ghz6_program", "bv8_program"])
    def test_small_clifford_tvd(self, fixture, calibration, request):
        """Small subjects keep sampling noise well under the bound (at
        12+ qubits the support outgrows any realistic shot count and
        empirical TVD measures variance, not disagreement)."""
        program = request.getfixturevalue(fixture)
        dists = self._distributions(program, calibration)
        assert total_variation_distance(
            dists["stabilizer"], dists["batched"]) < 0.06
        assert total_variation_distance(
            dists["stabilizer"], dists["trial"]) < 0.06

    def test_ideal_distribution_matches_dense(self, ghz12_program,
                                              calibration):
        stab = execute(ghz12_program, calibration, trials=64, seed=5,
                       engine="stabilizer").ideal_distribution
        dense = execute(ghz12_program, calibration, trials=64, seed=5,
                        engine="batched").ideal_distribution
        assert set(stab) == set(dense)
        for outcome, p in dense.items():
            assert stab[outcome] == pytest.approx(p)

    def test_ghz_coin_ideal(self, calibration):
        """Plain GHZ has one measurement coin: a 50/50 ideal mix."""
        program = compile_circuit(ghz(5), calibration, GREEDY)
        ideal = execute(program, calibration, trials=64, seed=0,
                        engine="stabilizer").ideal_distribution
        assert ideal == pytest.approx({"00000": 0.5, "11111": 0.5})

    def test_rejects_non_clifford(self, toffoli_program, calibration):
        with pytest.raises(SimulationError, match="auto"):
            execute(toffoli_program, calibration, trials=16, seed=0,
                    engine="stabilizer")


class TestAutoRouting:
    def test_clifford_matches_stabilizer(self, ghz12_program,
                                         calibration):
        direct = execute(ghz12_program, calibration, trials=1024,
                         seed=3, engine="stabilizer")
        routed = execute(ghz12_program, calibration, trials=1024,
                         seed=3, engine="auto")
        assert routed.counts == direct.counts

    def test_non_clifford_falls_back_to_dense_with_warning(
            self, toffoli_program, calibration):
        from repro.simulator.stabilizer import engine as stab_engine

        stab_engine._WARNED_NON_CLIFFORD.clear()
        with pytest.warns(RuntimeWarning, match="not Clifford"):
            routed = execute(toffoli_program, calibration, trials=512,
                             seed=3, engine="auto")
        dense = execute(toffoli_program, calibration, trials=512,
                        seed=3, engine="batched")
        assert routed.counts == dense.counts
        # The fallback is announced once per gate name, not per run.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute(toffoli_program, calibration, trials=16, seed=3,
                    engine="auto")


class TestCapacityGuard:
    def test_dense_engines_refuse_over_budget(self, ghz12_program,
                                              calibration, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "0.0001")  # ~6 amplitudes
        for run in (partial(execute, engine="batched"), reference_execute):
            with pytest.raises(SimulationCapacityError,
                               match="stabilizer") as exc:
                run(ghz12_program, calibration, trials=16, seed=0)
            assert "12-qubit" in str(exc.value)

    def test_stabilizer_ignores_amplitude_budget(self, ghz12_program,
                                                 calibration,
                                                 monkeypatch):
        monkeypatch.setenv(CHUNK_ENV, "0.0001")
        result = execute(ghz12_program, calibration, trials=64, seed=0,
                         engine="stabilizer")
        assert sum(result.counts.values()) == 64


class TestLargeNTier:
    def test_registry(self):
        names = large_benchmark_names()
        assert names == ["GHZ12", "REP49", "GHZ60", "BV64", "GHZ100"]
        assert expected_output("GHZ100") == "0" * 100
        assert expected_output("BV64").count("1") == 3
        assert len(build_benchmark("REP49").used_qubits()) == 49
        assert len(repetition_code(3, rounds=2).used_qubits()) == 7

    def test_ghz60_completes_within_budget(self):
        """Tier-1 wall-clock contract: a 60-qubit noisy GHZ run is a
        seconds-scale job on the stabilizer engine."""
        topo = square_topology(64)
        calibration = CalibrationGenerator(topo, seed=7).snapshot(0)
        start = time.perf_counter()
        program = compile_circuit(ghz_mirror(60), calibration, GREEDY)
        result = execute(program, calibration, trials=2048, seed=1,
                         expected="0" * 60, engine="stabilizer")
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        assert sum(result.counts.values()) == 2048
        assert 0.0 <= result.success_rate <= 1.0

    def test_sweep_serial_parallel_bit_identity(self):
        def cells():
            backend = get_backend("ibmq20")
            return [SweepCell(circuit=ghz_mirror(n), backend=backend,
                              day=0, options=GREEDY, expected="0" * n,
                              trials=512, seed=9, engine="stabilizer",
                              key=n)
                    for n in (12, 16)]

        serial = run_sweep(cells(), strict=True)
        parallel = run_sweep(cells(), workers=2, strict=True)
        for left, right in zip(serial, parallel):
            assert left.execution.counts == right.execution.counts
