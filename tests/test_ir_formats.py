"""Tests for OpenQASM and ScaffIR emit/parse round-trips."""

import io
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QasmError, ScaffIRError
from repro.ir.circuit import Circuit
from repro.ir.qasm import (
    MAX_REGISTER_SIZE,
    MAX_STATEMENTS,
    circuit_to_qasm,
    qasm_to_circuit,
)
from repro.ir.scaffir import emit_scaffir, parse_scaffir
from repro.programs import build_benchmark, random_circuit


class TestQasmEmission:
    def test_header_and_registers(self):
        text = circuit_to_qasm(Circuit(3, 2))
        assert "OPENQASM 2.0;" in text
        assert "qreg q[3];" in text
        assert "creg c[2];" in text

    def test_gate_lines(self):
        c = Circuit(2).h(0).cx(0, 1).measure(1, cbit=0)
        text = circuit_to_qasm(c)
        assert "h q[0];" in text
        assert "cx q[0], q[1];" in text
        assert "measure q[1] -> c[0];" in text

    def test_parametric_gate_roundtrips_exactly(self):
        c = Circuit(1, 1).rz(math.pi / 7, 0)
        back = qasm_to_circuit(circuit_to_qasm(c))
        assert back[0].param == pytest.approx(math.pi / 7)


class TestQasmParsing:
    def test_parse_simple_program(self):
        text = """
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        h q[0];
        cx q[0], q[1];
        measure q[0] -> c[0];
        """
        c = qasm_to_circuit(text)
        assert c.n_qubits == 2
        assert [g.name for g in c] == ["h", "cx", "measure"]

    def test_comments_stripped(self):
        text = "qreg q[1];\nh q[0]; // comment\n"
        assert len(qasm_to_circuit(text)) == 1

    @pytest.mark.parametrize("expr,value", [
        ("pi/2", math.pi / 2), ("pi/4", math.pi / 4),
        ("-0.5*pi", -0.5 * math.pi), ("(pi)/2", math.pi / 2),
        ("2*(e - 1) + .5", 2 * (math.e - 1) + 0.5), ("1e-05", 1e-05),
        ("-(-3)/4", 0.75), ("1.5E+2", 150.0)])
    def test_pi_expression_parsed(self, expr, value):
        c = qasm_to_circuit(f"qreg q[1]; rz({expr}) q[0];")
        assert c[0].param == pytest.approx(value)

    def test_missing_qreg_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit("h q[0];")

    def test_unknown_register_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit("qreg q[1]; h r[0];")

    def test_gate_before_qreg_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit('OPENQASM 2.0; h q[0]; qreg q[1];')

    @pytest.mark.parametrize("expr", [
        '__import__("os"', "9**9**9", "pi//2", "(pi", "pi)", "",
        "2pi", "1/0", "1e308*10", "x", "pi e", "-" * 300 + "1"])
    def test_evil_parameter_rejected(self, expr):
        with pytest.raises(QasmError):
            qasm_to_circuit(f"qreg q[1]; rz({expr}) q[0];")

    def test_power_tower_rejected_quickly(self):
        text = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                'rz(9**9**9) q[0];\n')
        start = time.perf_counter()
        with pytest.raises(QasmError):
            qasm_to_circuit(text)
        assert time.perf_counter() - start < 1.0

    def test_multiple_qregs_rejected(self):
        with pytest.raises(QasmError):
            qasm_to_circuit("qreg a[1]; qreg b[1];")

    @given(seed=st.integers(0, 5000), n_gates=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random_circuits(self, seed, n_gates):
        original = random_circuit(4, n_gates, seed=seed)
        back = qasm_to_circuit(circuit_to_qasm(original))
        assert back.n_qubits == original.n_qubits
        assert [g.name for g in back] == [g.name for g in original]
        assert [g.qubits for g in back] == [g.qubits for g in original]

    def test_roundtrip_benchmarks(self):
        for name in ("BV4", "QFT", "Adder"):
            original = build_benchmark(name)
            back = qasm_to_circuit(circuit_to_qasm(original))
            assert len(back) == len(original)


def ghz17(register_wide):
    """A 17-qubit GHZ program, its measures spelled out or as one
    register-wide ``measure q -> c;``."""
    measures = (["measure q -> c;"] if register_wide else
                [f"measure q[{i}] -> c[{i}];" for i in range(17)])
    return "\n".join(
        ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[17];",
         "creg c[17];", "h q[0];"]
        + [f"cx q[{i}],q[{i + 1}];" for i in range(16)] + measures + [""])


class TestRegisterArguments:
    """OpenQASM 2.0 broadcasts a bare register name over its indices."""

    def test_register_wide_ghz_equals_spelled_out(self):
        wide = qasm_to_circuit(ghz17(register_wide=True))
        spelled = qasm_to_circuit(ghz17(register_wide=False))
        assert list(wide) == list(spelled)
        assert wide.fingerprint() == spelled.fingerprint()

    def test_register_wide_ghz_runs_end_to_end(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ghz17.qasm"
        path.write_text(ghz17(register_wide=True))
        code = main(["run", "--qasm", str(path), "--device", "falcon27",
                     "--variant", "greedye*", "--trials", "64"],
                    out=io.StringIO())
        assert code == 0

    def test_one_qubit_gates_apply_per_index(self):
        circuit = qasm_to_circuit("qreg q[3]; h q; rz(pi/2) q;")
        assert [(g.name, g.qubits) for g in circuit] == [
            ("h", (0,)), ("h", (1,)), ("h", (2,)),
            ("rz", (0,)), ("rz", (1,)), ("rz", (2,))]
        assert {g.param for g in circuit if g.name == "rz"} == {math.pi / 2}

    def test_barrier_spans_the_register(self):
        circuit = qasm_to_circuit("qreg q[3]; barrier q;")
        assert [(g.name, g.qubits) for g in circuit] == [
            ("barrier", (0, 1, 2))]

    @pytest.mark.parametrize("text,match", [
        ("qreg q[3]; creg c[2]; measure q -> c;", "of its size"),
        ("qreg q[3]; creg c[3]; measure q -> c[0];", "of its size"),
        ("qreg q[2]; cx q, q;", "pair a qubit with itself"),
        ("qreg q[2]; cx q, q[1];", "pair a qubit with itself"),
    ], ids=["size-mismatch", "mixed-measure", "cx-q-q", "cx-q-index"])
    def test_unrepresentable_broadcasts_rejected(self, text, match):
        with pytest.raises(QasmError, match=match):
            qasm_to_circuit(text)

    def test_expanded_gates_count_toward_the_statement_cap(self):
        copies = MAX_STATEMENTS // MAX_REGISTER_SIZE + 1
        text = f"qreg q[{MAX_REGISTER_SIZE}];" + "h q;" * copies
        with pytest.raises(QasmError, match="statements"):
            qasm_to_circuit(text)

    def test_broadcast_flood_rejected_quickly(self):
        text = (f"qreg q[{MAX_REGISTER_SIZE}];"
                + "h q;" * (MAX_STATEMENTS - 1))
        start = time.perf_counter()
        with pytest.raises(QasmError, match="statements"):
            qasm_to_circuit(text)
        assert time.perf_counter() - start < 2.0


#: Tokens of the supported QASM subset plus near misses, for the fuzz
#: test below.
_QASM_TOKENS = [
    "OPENQASM 2.0", 'include "qelib1.inc"', "qreg", "creg", "q", "c",
    "r", "[", "]", "(", ")", ";", ",", "->", "//", "\n", "0", "1", "2",
    "7", "999", "1000", "1001", "100000000", "9" * 5000, "-1", "h", "x",
    "cx", "rz", "u3", "swap", "measure", "barrier", "reset", "pi", "/",
    "*", "+", "-", "e", "1e999", "q[0]", "q[1]", "q[5]", "c[0]", "c[7]",
]

#: ScaffIR tokens plus near misses, for the ScaffIR fuzz test.
_SCAFFIR_TOKENS = [
    "qubits", "cbits", "q0", "q1", "q2", "q9", "c0", "c7", "q", "c",
    "qubit0", "(", ")", ",", "->", "//", "\n", "0", "2", "1000", "1001",
    "9" * 5000, "-1", "h", "x", "cx", "rz", "u3", "swap", "measure",
    "barrier", "pi", "/", "*", "+", "-", "1e999", "(pi)", "((pi)/2)",
]


class TestParserBoundaries:
    """Oversized or out-of-range input raises the parser's own error."""

    @pytest.mark.parametrize("text", [
        "qreg q[2]; h q[5];",
        "qreg q[1]; creg c[1]; measure q[0] -> c[7];",
        "qreg q[0];",
    ], ids=["qubit-index", "cbit-index", "empty-qreg"])
    def test_out_of_range_is_qasm_error(self, text):
        with pytest.raises(QasmError):
            qasm_to_circuit(text)

    @pytest.mark.parametrize("text", [
        "qreg q[" + "9" * 5000 + "];",
        "qreg q[2]; h q[" + "1" * 5000 + "];",
    ], ids=["size", "index"])
    def test_huge_digit_strings_are_qasm_errors(self, text):
        with pytest.raises(QasmError):
            qasm_to_circuit(text)

    @pytest.mark.parametrize("text", [
        "qreg q[100000000];",
        "qreg q[1]; creg c[100000000];",
        f"qreg q[{MAX_REGISTER_SIZE + 1}];",
    ], ids=["qreg", "creg", "just-over"])
    def test_register_cap_qasm(self, text):
        with pytest.raises(QasmError, match="register limit"):
            qasm_to_circuit(text)

    def test_register_cap_admits_the_limit(self):
        circuit = qasm_to_circuit(f"qreg q[{MAX_REGISTER_SIZE}]; "
                                  f"h q[{MAX_REGISTER_SIZE - 1}];")
        assert circuit.n_qubits == MAX_REGISTER_SIZE

    def test_statement_cap_qasm(self):
        text = "qreg q[1];" + "h q[0];" * MAX_STATEMENTS
        with pytest.raises(QasmError, match="statements"):
            qasm_to_circuit(text)

    @pytest.mark.parametrize("text", [
        "qubits 100000000",
        "qubits 2\ncbits 100000000",
        "qubits " + "9" * 5000,
        "qubits 2\nh q" + "1" * 5000,
        "qubits 2\nmeasure q0 -> c" + "7" * 5000,
        "qubits 0",
    ], ids=["qubits", "cbits", "size-digits", "index-digits",
            "cbit-digits", "empty"])
    def test_scaffir_boundaries(self, text):
        with pytest.raises(ScaffIRError):
            parse_scaffir(text)

    @pytest.mark.parametrize("line", [
        "h" + " " * 20000 + "(",
        "h" * 20000 + "(",
        "h(" + ") " * 10000 + "(",
        "h(" + ")" + " " * 20000 + "(",
    ], ids=["spaces", "word", "closers", "tail"])
    def test_long_gate_lines_rejected_quickly(self, line):
        start = time.perf_counter()
        with pytest.raises(QasmError):
            qasm_to_circuit(f"qreg q[1]; {line};")
        with pytest.raises(ScaffIRError):
            parse_scaffir(f"qubits 1\n{line}\n")
        assert time.perf_counter() - start < 1.0

    def test_statement_cap_scaffir(self):
        text = "qubits 1\n" + "h q0\n" * MAX_STATEMENTS
        with pytest.raises(ScaffIRError, match="statements"):
            parse_scaffir(text)

    @given(tokens=st.lists(st.sampled_from(_SCAFFIR_TOKENS), max_size=40),
           sep=st.sampled_from([" ", "", "\n"]))
    @settings(max_examples=300, deadline=1000)
    def test_token_soup_yields_circuit_or_scaffir_error(self, tokens, sep):
        try:
            circuit = parse_scaffir("qubits 3\ncbits 3\n"
                                    + sep.join(tokens))
        except ScaffIRError:
            return
        assert isinstance(circuit, Circuit)

    @given(prefix=st.sampled_from(["", "qreg q[3];",
                                   "qreg q[3]; creg c[3];"]),
           tokens=st.lists(st.sampled_from(_QASM_TOKENS), max_size=40),
           sep=st.sampled_from([" ", "", ";"]))
    @settings(max_examples=300, deadline=1000)
    def test_token_soup_yields_circuit_or_qasm_error(self, prefix, tokens,
                                                     sep):
        try:
            circuit = qasm_to_circuit(prefix + sep.join(tokens))
        except QasmError:
            return
        assert isinstance(circuit, Circuit)


class TestScaffIR:
    SAMPLE = """
    // Bernstein-Vazirani on 2+1 qubits
    qubits 3
    cbits 2
    x q2
    h q0
    h q1
    h q2
    cx q0, q2
    h q0
    measure q0 -> c0
    measure q1 -> c1
    """

    def test_parse_sample(self):
        c = parse_scaffir(self.SAMPLE)
        assert c.n_qubits == 3
        assert c.n_cbits == 2
        assert c.cnot_count() == 1
        assert len(c.measurements) == 2

    def test_missing_qubits_decl_rejected(self):
        with pytest.raises(ScaffIRError):
            parse_scaffir("h q0")

    def test_duplicate_qubits_decl_rejected(self):
        with pytest.raises(ScaffIRError):
            parse_scaffir("qubits 2\nqubits 3")

    def test_bad_qubit_token_rejected(self):
        with pytest.raises(ScaffIRError):
            parse_scaffir("qubits 2\nh qubit0")

    def test_out_of_range_reference_rejected(self):
        with pytest.raises(ScaffIRError):
            parse_scaffir("qubits 2\nh q5")

    def test_parametric_gate(self):
        c = parse_scaffir("qubits 1\nrz(pi/4) q0")
        assert c[0].param == pytest.approx(math.pi / 4)

    def test_parameter_may_nest_parentheses(self):
        c = parse_scaffir("qubits 1\nrz((pi)/2) q0\n")
        assert c[0].param == math.pi / 2
        assert c[0] == qasm_to_circuit("qreg q[1]; rz((pi)/2) q[0];")[0]

    def test_nested_parameter_roundtrip(self):
        original = parse_scaffir("qubits 2\ncbits 2\nrz(-((pi)/4)) q1\n"
                                 "rx(((pi))*2/3) q0\ncx q0, q1\n")
        assert [g.param for g in original][:2] == [-(math.pi / 4),
                                                   math.pi * 2 / 3]
        back = parse_scaffir(emit_scaffir(original))
        assert [g for g in back] == [g for g in original]

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random(self, seed):
        original = random_circuit(3, 20, seed=seed)
        back = parse_scaffir(emit_scaffir(original))
        assert [g for g in back] == [g for g in original]

    def test_emit_contains_declarations(self):
        text = emit_scaffir(Circuit(2, 2).h(0).measure(0))
        assert "qubits 2" in text
        assert "measure q0 -> c0" in text
