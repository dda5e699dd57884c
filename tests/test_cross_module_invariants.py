"""Cross-module invariants tying the optimizer, estimator and executor
together — the consistency arguments the paper's methodology rests on.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompilerOptions,
    TimeSmtMapper,
    compile_circuit,
    estimate_reliability,
    weighted_log_reliability,
)
from repro.hardware import (
    CalibrationGenerator,
    GridTopology,
    ReliabilityTables,
    default_ibmq16_calibration,
)
from repro.ir.circuit import Circuit
from repro.programs import build_benchmark, expected_output
from repro.simulator import execute

from analytic_reference import estimate_success_analytic


class TestObjectiveMatchesEstimator:
    """The R-SMT* solver objective and the post-compile reliability
    estimator must agree: the solver maximizes exactly what the
    estimator reports (modulo the junction re-selection at scheduling,
    which can only improve reliability)."""

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("bench", ["BV4", "Toffoli"])
    def test_solver_objective_close_to_estimate(self, omega, bench):
        cal = default_ibmq16_calibration()
        program = compile_circuit(
            build_benchmark(bench), cal,
            CompilerOptions.r_smt_star(omega=omega))
        solver_value = program.mapping.objective
        estimate_value = weighted_log_reliability(program.reliability,
                                                  omega)
        # Scheduling may pick a (weakly) better junction than the
        # solver's table assumed, so estimate >= solver objective.
        assert estimate_value >= solver_value - 1e-6


class TestTimeSmtIsOptimal:
    """T-SMT's returned makespan equals brute force on tiny machines."""

    def test_matches_brute_force_enumeration(self):
        from repro.compiler.scheduling.list_scheduler import makespan_of

        topo = GridTopology(3, 2)
        cal = CalibrationGenerator(topo, seed=9).snapshot(0)
        tables = ReliabilityTables(cal)
        circuit = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2).measure_all()
        options = CompilerOptions.t_smt_star()
        mapper = TimeSmtMapper(options)
        result = mapper.run(circuit, cal, tables)
        assert result.optimal

        best = min(
            makespan_of(circuit, dict(zip(range(3), perm)), cal, tables,
                        options)
            for perm in itertools.permutations(range(6), 3))
        achieved = makespan_of(circuit, result.placement, cal, tables,
                               options)
        assert achieved == pytest.approx(best)


class TestEstimatorTracksExecutor:
    """The paper argues the reliability score is a useful proxy for
    measured success. Check the correlation across mappings."""

    def test_ranking_preserved_across_variants(self):
        cal = default_ibmq16_calibration()
        circuit = build_benchmark("HS6")
        pairs = []
        for options in (CompilerOptions.qiskit(),
                        CompilerOptions.t_smt_star(routing="1bp"),
                        CompilerOptions.r_smt_star()):
            program = compile_circuit(circuit, cal, options)
            measured = execute(program, cal, trials=1024, seed=13,
                               expected=expected_output("HS6")).success_rate
            pairs.append((program.estimated_success, measured))
        # Sort by estimate; measured must be (weakly) sorted too,
        # allowing simulation noise.
        pairs.sort()
        for (e1, m1), (e2, m2) in zip(pairs, pairs[1:]):
            assert m2 >= m1 - 0.07, pairs

    @given(day=st.integers(0, 6))
    @settings(max_examples=7, deadline=None)
    def test_analytic_vs_paper_estimate_bracket_measurement(self, day):
        """Paper-score (no decoherence term) and the analytic estimate
        (with decoherence) should both land near the executor."""
        from repro.hardware import CalibrationGenerator, ibmq16_topology
        cal = CalibrationGenerator(ibmq16_topology(), seed=2019) \
            .snapshot(day)
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star())
        analytic = estimate_success_analytic(program, cal).success
        measured = execute(program, cal, trials=1024, seed=day,
                           expected=expected_output("BV4")).success_rate
        assert analytic == pytest.approx(measured, abs=0.12)


class TestScheduleConsistency:
    def test_estimated_duration_close_to_physical(self):
        """Logical-schedule makespan (paper's duration metric) and the
        physical ASAP duration agree when durations are calibrated."""
        cal = default_ibmq16_calibration()
        for bench in ("BV4", "HS6", "Toffoli", "Adder"):
            program = compile_circuit(build_benchmark(bench), cal,
                                      CompilerOptions.r_smt_star())
            logical = program.duration
            physical = program.physical.duration
            assert physical <= logical * 1.25 + 5.0, bench
            assert logical <= physical * 1.6 + 5.0, bench

    def test_swap_counts_agree_between_schedule_and_physical(self):
        cal = default_ibmq16_calibration()
        for bench in ("BV4", "Toffoli", "Fredkin"):
            program = compile_circuit(build_benchmark(bench), cal,
                                      CompilerOptions.qiskit())
            # Physical movement CNOTs = 6 per one-way SWAP (there and
            # back at 3 CNOTs each).
            assert program.physical.swap_cnots == 6 * program.swap_count
