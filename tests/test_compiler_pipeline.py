"""End-to-end tests for compile_circuit, swap insertion and codegen."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_circuit,
    estimate_reliability,
    weighted_log_reliability,
)
from repro.exceptions import CompilationError
from repro.hardware import (
    CalibrationGenerator,
    ReliabilityTables,
    default_ibmq16_calibration,
    square_topology,
)
from repro.ir.circuit import Circuit
from repro.ir.qasm import qasm_to_circuit
from repro.programs import build_benchmark, expected_output, random_circuit
from repro.simulator import StateVector


@pytest.fixture(scope="module")
def cal():
    return default_ibmq16_calibration()


@pytest.fixture(scope="module")
def tables(cal):
    return ReliabilityTables(cal)


ALL_OPTIONS = [CompilerOptions.qiskit(), CompilerOptions.t_smt(),
               CompilerOptions.t_smt_star(), CompilerOptions.r_smt_star(),
               CompilerOptions.greedy_e(), CompilerOptions.greedy_v()]


def simulate_physical(program: CompiledProgram) -> str:
    """Noise-free execution of the physical circuit -> classical string.

    Marginalizes over unmeasured qubits (e.g. BV's ancilla stays in
    superposition) and asserts the *measured* outcome is deterministic.
    """
    circuit = program.physical.circuit
    used = circuit.used_qubits()
    dense = {h: i for i, h in enumerate(used)}
    state = StateVector(len(used))
    measures = {}
    for gate in circuit.gates:
        if gate.is_measure:
            measures[dense[gate.qubits[0]]] = gate.cbit
        elif gate.name != "barrier":
            state.apply_gate(gate.name,
                             tuple(dense[q] for q in gate.qubits),
                             param=gate.param)
    probs = state.probabilities()
    n = len(used)
    outcome_probs = {}
    for index, p in enumerate(probs):
        if p < 1e-9:
            continue
        chars = ["0"] * circuit.n_cbits
        for q, cbit in measures.items():
            chars[cbit] = str((index >> (n - 1 - q)) & 1)
        key = "".join(chars)
        outcome_probs[key] = outcome_probs.get(key, 0.0) + p
    best = max(outcome_probs, key=outcome_probs.get)
    assert outcome_probs[best] == pytest.approx(1.0, abs=1e-6), \
        f"physical output is not deterministic: {outcome_probs}"
    return best


class TestSemanticPreservation:
    """The compiled physical circuit must compute the same answer as the
    logical benchmark — for every variant, under every routing policy."""

    @pytest.mark.parametrize("options", ALL_OPTIONS,
                             ids=[o.variant for o in ALL_OPTIONS])
    @pytest.mark.parametrize("bench", ["BV4", "HS4", "Toffoli", "Fredkin",
                                       "Peres", "Or", "QFT", "Adder"])
    def test_compiled_circuit_computes_benchmark_answer(self, options,
                                                        bench, cal, tables):
        program = compile_circuit(build_benchmark(bench), cal, options,
                                  tables=tables)
        assert simulate_physical(program) == expected_output(bench)

    @pytest.mark.parametrize("routing", ["rr", "1bp"])
    def test_routing_policies_preserve_semantics(self, routing, cal, tables):
        options = CompilerOptions.t_smt_star(routing=routing)
        program = compile_circuit(build_benchmark("Fredkin"), cal, options,
                                  tables=tables)
        assert simulate_physical(program) == expected_output("Fredkin")

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_random_classical_circuits_preserved(self, cal, tables, seed):
        """X/CX-only circuits have deterministic outputs; compilation
        (including swap insertion) must preserve them exactly."""
        import random as pyrandom
        rng = pyrandom.Random(seed)
        circuit = Circuit(4, 4, name=f"cls{seed}")
        for _ in range(12):
            if rng.random() < 0.5:
                circuit.x(rng.randrange(4))
            else:
                a, b = rng.sample(range(4), 2)
                circuit.cx(a, b)
        circuit.measure_all()
        program = compile_circuit(circuit, cal,
                                  CompilerOptions.greedy_e(), tables=tables)
        # Reference: classical simulation of the logical circuit.
        bits = [0, 0, 0, 0]
        for gate in circuit.gates:
            if gate.name == "x":
                bits[gate.qubits[0]] ^= 1
            elif gate.name == "cx":
                bits[gate.target] ^= bits[gate.control]
        expected = "".join(str(b) for b in bits)
        assert simulate_physical(program) == expected


class TestPhysicalProgram:
    def test_all_cnots_on_coupling_edges(self, cal, tables):
        for options in ALL_OPTIONS:
            program = compile_circuit(build_benchmark("Fredkin"), cal,
                                      options, tables=tables)
            for gate in program.physical.circuit.gates:
                if gate.is_two_qubit:
                    assert cal.topology.is_adjacent(*gate.qubits), \
                        options.variant

    def test_swap_cnots_counted(self, cal, tables):
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.qiskit(), tables=tables)
        assert program.physical.swap_cnots == 6 * program.swap_count

    def test_times_parallel_to_gates(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star(),
                                  tables=tables)
        assert len(program.physical.times) == \
            len(program.physical.circuit.gates)
        assert all(d > 0 for _, d in program.physical.times)

    def test_per_qubit_times_are_serialized(self, cal, tables):
        """No two physical gates on the same qubit overlap in time."""
        program = compile_circuit(build_benchmark("HS6"), cal,
                                  CompilerOptions.qiskit(), tables=tables)
        windows = {}
        for gate, (start, duration) in zip(program.physical.circuit.gates,
                                           program.physical.times):
            for q in gate.qubits:
                windows.setdefault(q, []).append((start, start + duration))
        for q, spans in windows.items():
            spans.sort()
            for (s1, f1), (s2, f2) in zip(spans, spans[1:]):
                assert s2 >= f1 - 1e-6


class TestQasmOutput:
    def test_qasm_parses_back(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star(),
                                  tables=tables)
        back = qasm_to_circuit(program.qasm())
        assert back.n_qubits == 16
        assert len(back) == len(program.physical.circuit)

    def test_summary_mentions_variant(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.greedy_e(), tables=tables)
        assert "greedye*" in program.summary()
        # Heuristics never claim optimality, and are not flagged for it.
        assert not program.mapping.optimal
        assert "not proven optimal" not in program.summary()

    def test_summary_flags_truncated_solver_mapping(self):
        """An R-SMT* solve cut short by its time limit says so: this
        instance needs thousands of nodes, and the search checks the
        clock every 256."""
        calibration = CalibrationGenerator(square_topology(8),
                                           seed=2019).snapshot(0)
        circuit = random_circuit(8, 512, seed=2019 + 8 * 10000 + 512)
        options = CompilerOptions.r_smt_star(omega=0.5)
        cut = compile_circuit(circuit, calibration,
                              options.with_(solver_time_limit=1e-9))
        assert not cut.mapping.optimal
        assert cut.summary().endswith(
            f" not proven optimal (stopped at {cut.mapping.nodes} nodes)")
        full = compile_circuit(circuit, calibration, options)
        assert full.mapping.optimal
        assert full.mapping.nodes > cut.mapping.nodes
        assert "not proven optimal" not in full.summary()


class TestMetrics:
    def test_estimate_matches_route_products(self, cal, tables):
        program = compile_circuit(build_benchmark("Toffoli"), cal,
                                  CompilerOptions.r_smt_star(),
                                  tables=tables)
        est = program.reliability
        assert 0 < est.score <= 1
        assert est.round_trip_score <= est.score + 1e-12
        assert est.score == pytest.approx(est.cnot_score * est.readout_score)

    def test_weighted_log_reliability(self, cal, tables):
        program = compile_circuit(build_benchmark("BV4"), cal,
                                  CompilerOptions.r_smt_star(),
                                  tables=tables)
        value = weighted_log_reliability(program.reliability, 0.5)
        assert value < 0

    def test_zero_swap_scores_higher_than_many_swaps(self, cal, tables):
        """The reliability estimate must reward avoiding movement."""
        good = compile_circuit(build_benchmark("BV4"), cal,
                               CompilerOptions.r_smt_star(), tables=tables)
        bad = compile_circuit(build_benchmark("BV4"), cal,
                              CompilerOptions.qiskit(), tables=tables)
        assert good.swap_count == 0
        assert bad.swap_count > 0
        assert good.estimated_success > bad.estimated_success


class TestOptionsValidation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(CompilationError):
            CompilerOptions(variant="magic")

    def test_unknown_routing_rejected(self):
        with pytest.raises(CompilationError):
            CompilerOptions(routing="teleport")

    def test_omega_range_checked(self):
        with pytest.raises(CompilationError):
            CompilerOptions(omega=1.5)

    def test_with_updates(self):
        opts = CompilerOptions.r_smt_star().with_(omega=0.25)
        assert opts.omega == 0.25
        assert opts.variant == "r-smt*"

    def test_noise_awareness_flags(self):
        assert not CompilerOptions.qiskit().is_noise_aware
        assert not CompilerOptions.t_smt().is_noise_aware
        assert CompilerOptions.t_smt_star().is_noise_aware
        assert CompilerOptions.r_smt_star().is_noise_aware
        assert CompilerOptions.greedy_e().is_noise_aware

    @pytest.mark.parametrize("constructor, digest", [
        ("qiskit", "44cf5ab0b4cc92408205a8966009454b"
                   "eb542c41856d9afea9331466a4748e42"),
        ("t_smt", "09ba1a3c144f3b157aa358f293351b79"
                  "09672db70164bcb732cf7a619e93aeb1"),
        ("t_smt_star", "c130aa9f8764da7bf937dcf697b3ca5e"
                       "b3470f7f1abc875cd3eb23edbd47e26e"),
        ("r_smt_star", "379d47e8645731299d24ef0ce4b3714a"
                       "effb0f1d1509b0986af0638631d2ff1b"),
        ("greedy_v", "6444a11f6bc76bf3639d4bd58ab13dc9"
                     "4c87b417c5b5c12e694be669c1537ec8"),
        ("greedy_e", "0df404e0b2cbba7098c924b6808b1630"
                     "19271e799e74bec4eca05591f0f79035"),
    ])
    def test_table1_fingerprints_pinned(self, constructor, digest):
        """Compile-cache and journal keys embed these digests: a change
        to the option fields or their encoding re-keys every cache."""
        options = getattr(CompilerOptions, constructor)()
        assert options.fingerprint() == digest
