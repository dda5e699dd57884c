"""Tests for the benchmark programs: structure and functional correctness.

Functional correctness is checked by running each benchmark noiselessly
on the statevector simulator and asserting the registered deterministic
answer comes out with probability 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CircuitError
from repro.ir.circuit import Circuit
from repro.programs import (
    all_benchmarks,
    bernstein_vazirani,
    benchmark_names,
    build_benchmark,
    expected_output,
    get_benchmark,
    hidden_shift,
    qft_roundtrip,
    random_circuit,
)
from repro.programs.arith import (
    adder,
    adder_expected_output,
    fredkin,
    fredkin_expected_output,
    or_gate,
    or_expected_output,
    peres,
    peres_expected_output,
    toffoli,
    toffoli_expected_output,
)
from repro.simulator import StateVector


def ideal_outcome(circuit: Circuit) -> str:
    """Noise-free deterministic outcome of a circuit (cbit 0 first)."""
    state = StateVector(circuit.n_qubits)
    measures = {}
    for gate in circuit.gates:
        if gate.is_measure:
            measures[gate.qubits[0]] = gate.cbit
        elif gate.name != "barrier":
            state.apply_gate(gate.name, gate.qubits, param=gate.param)
    probs = state.probabilities()
    # Marginalize over unmeasured qubits; assert determinism on cbits.
    outcome_probs = {}
    n = circuit.n_qubits
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
        f"non-deterministic output: {outcome_probs}"
    return best


class TestRegistry:
    def test_twelve_benchmarks(self):
        assert len(benchmark_names()) == 12

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(Exception):
            get_benchmark("nope")

    def test_registry_metadata_matches_builders(self):
        for name in benchmark_names():
            spec = get_benchmark(name)
            circuit = spec.build()
            assert circuit.n_qubits == spec.paper_qubits
            assert circuit.cnot_count() >= spec.paper_cnots - 3

    def test_all_benchmarks_iterator(self):
        names = [n for n, _, _ in all_benchmarks()]
        assert names == benchmark_names()

    def test_cnot_counts_match_table2(self):
        """CNOT counts equal Table 2 for all but Adder (see the README's
        "Substitutions")."""
        for name in benchmark_names():
            spec = get_benchmark(name)
            if name == "Adder":
                continue
            assert spec.build().cnot_count() == spec.paper_cnots, name


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("name", [
        "BV4", "BV6", "BV8", "HS2", "HS4", "HS6",
        "Toffoli", "Fredkin", "Or", "Peres", "QFT", "Adder",
    ])
    def test_registered_expected_output_is_the_ideal_outcome(self, name):
        assert ideal_outcome(build_benchmark(name)) == expected_output(name)

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_bv_returns_hidden_string(self, bits):
        circuit = bernstein_vazirani(bits)
        assert ideal_outcome(circuit) == "".join(str(b) for b in bits)

    @given(half=st.lists(st.integers(0, 1), min_size=1, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_hs_returns_shift(self, half):
        shift = half + half[::-1]  # even length
        circuit = hidden_shift(shift)
        assert ideal_outcome(circuit) == "".join(str(b) for b in shift)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_qft_roundtrip_returns_zero(self, n):
        assert ideal_outcome(qft_roundtrip(n)) == "0" * n

    @pytest.mark.parametrize("inputs", [(a, b, c) for a in (0, 1)
                                        for b in (0, 1) for c in (0, 1)])
    def test_toffoli_truth_table(self, inputs):
        assert ideal_outcome(toffoli(inputs)) == \
            toffoli_expected_output(inputs)

    @pytest.mark.parametrize("inputs", [(a, b, c) for a in (0, 1)
                                        for b in (0, 1) for c in (0, 1)])
    def test_fredkin_truth_table(self, inputs):
        assert ideal_outcome(fredkin(inputs)) == \
            fredkin_expected_output(inputs)

    @pytest.mark.parametrize("inputs", [(a, b, 0) for a in (0, 1)
                                        for b in (0, 1)])
    def test_or_truth_table(self, inputs):
        assert ideal_outcome(or_gate(inputs)) == or_expected_output(inputs)

    @pytest.mark.parametrize("inputs", [(a, b, c) for a in (0, 1)
                                        for b in (0, 1) for c in (0, 1)])
    def test_peres_truth_table(self, inputs):
        assert ideal_outcome(peres(inputs)) == peres_expected_output(inputs)

    @pytest.mark.parametrize("inputs", [(c, b, a) for c in (0, 1)
                                        for b in (0, 1) for a in (0, 1)])
    def test_adder_truth_table(self, inputs):
        assert ideal_outcome(adder(inputs)) == adder_expected_output(inputs)

    def test_adder_interaction_graph_is_a_star(self):
        """The paper's zero-movement observation needs a triangle-free
        adder; ours is a star centered on qubit 2."""
        edges = set(adder().interaction_graph())
        assert edges == {(1, 2), (0, 2), (2, 3)}

    def test_toffoli_family_has_triangles(self):
        for circuit in (toffoli(), fredkin(), or_gate(), peres()):
            edges = set(circuit.interaction_graph())
            assert {(0, 1), (0, 2), (1, 2)} <= edges


class TestValidation:
    def test_bv_rejects_bad_string(self):
        with pytest.raises(CircuitError):
            bernstein_vazirani([0, 2])
        with pytest.raises(CircuitError):
            bernstein_vazirani([])

    def test_hs_rejects_odd_length(self):
        with pytest.raises(CircuitError):
            hidden_shift([1, 0, 1])

    def test_arith_rejects_bad_inputs(self):
        with pytest.raises(CircuitError):
            toffoli((1, 1))
        with pytest.raises(CircuitError):
            adder((2, 0, 0))


class TestRandomCircuits:
    def test_reproducible(self):
        a = random_circuit(4, 30, seed=1)
        b = random_circuit(4, 30, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        assert random_circuit(4, 30, seed=1) != random_circuit(4, 30, seed=2)

    def test_gate_count(self):
        c = random_circuit(4, 30, seed=0, measure=False)
        assert c.gate_count() == 30

    def test_measure_layer(self):
        c = random_circuit(4, 10, seed=0)
        assert len(c.measurements) == 4

    def test_two_qubit_fraction(self):
        c = random_circuit(4, 200, seed=0, two_qubit_fraction=1.0,
                           measure=False)
        assert c.cnot_count() == 200

    def test_rejects_tiny_register(self):
        with pytest.raises(CircuitError):
            random_circuit(1, 5)

    @given(seed=st.integers(0, 1000), n=st.integers(2, 8),
           g=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_gates_within_register(self, seed, n, g):
        c = random_circuit(n, g, seed=seed)
        for gate in c:
            assert all(q < n for q in gate.qubits)
