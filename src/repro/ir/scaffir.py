"""ScaffIR — a small textual IR standing in for ScaffCC's LLVM IR.

The paper's toolflow starts from the LLVM IR that ScaffCC produces for a
Scaffold program: a flat list of decomposed gates over named qubit
registers, with data dependencies implied by program order. ScaffIR is a
minimal, human-writable format carrying the same information:

    // Bernstein-Vazirani on 4 qubits
    qubits 4
    cbits 4
    h q0
    h q3
    x q3
    cx q0, q3
    measure q0 -> c0

Lines are ``<op> [ (param) ] q<i>[, q<j>]`` plus ``measure qi -> cj``,
``qubits N``, ``cbits N``, ``barrier``, and ``//`` comments. Register
sizes, indices and the line count share the QASM parser's caps.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.exceptions import ScaffIRError
from repro.ir.circuit import Circuit
from repro.ir.gates import PARAMETRIC_GATES, Gate
from repro.ir.qasm import (
    MAX_STATEMENTS,
    _build_circuit,
    _eval_param,
    _register_int,
)

_QUBITS_RE = re.compile(r"^qubits\s+(\d+)$")
_CBITS_RE = re.compile(r"^cbits\s+(\d+)$")
_MEASURE_RE = re.compile(r"^measure\s+q(\d+)\s*->\s*c(\d+)$")
# The parameter list runs to the last ")", so it may nest parentheses
# (as in repro.ir.qasm); the qubit list after it holds none. The word
# boundary and the single whitespace run before "(" leave one way to
# split a line, so a match takes time linear in its length.
_GATE_RE = re.compile(r"^(\w+)\b(?:\s*\((.*)\))?([^()]*)$")
_QUBIT_RE = re.compile(r"^q(\d+)$")


def parse_scaffir(text: str, name: str = "scaffir") -> Circuit:
    """Parse ScaffIR text into a :class:`Circuit`.

    Raises:
        ScaffIRError: On malformed input, indices outside their
            register, or input over the shared size caps.
    """
    n_qubits: Optional[int] = None
    n_cbits: Optional[int] = None
    gates: List[Gate] = []
    statements = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.sub(r"//.*$", "", raw).strip()
        if not line:
            continue
        statements += 1
        if statements > MAX_STATEMENTS:
            raise ScaffIRError(f"more than {MAX_STATEMENTS} statements")
        m = _QUBITS_RE.match(line)
        if m:
            if n_qubits is not None:
                raise ScaffIRError(f"line {lineno}: duplicate qubits decl")
            n_qubits = _int(m.group(1), "qubits", lineno)
            continue
        m = _CBITS_RE.match(line)
        if m:
            n_cbits = _int(m.group(1), "cbits", lineno)
            continue
        if n_qubits is None:
            raise ScaffIRError(f"line {lineno}: gate before 'qubits N'")
        m = _MEASURE_RE.match(line)
        if m:
            gates.append(Gate("measure",
                              (_int(m.group(1), "qubit index", lineno),),
                              cbit=_int(m.group(2), "cbit index", lineno)))
            continue
        gates.append(_parse_gate_line(line, lineno))

    if n_qubits is None:
        raise ScaffIRError("missing 'qubits N' declaration")
    return _build_circuit(n_qubits, n_cbits, gates, name, ScaffIRError)


def _int(digits: str, what: str, lineno: int) -> int:
    return _register_int(digits, f"line {lineno}: {what}", ScaffIRError)


def _parse_gate_line(line: str, lineno: int) -> Gate:
    m = _GATE_RE.match(line)
    if not m:
        raise ScaffIRError(f"line {lineno}: cannot parse {line!r}")
    op, param_text, args_text = m.group(1).lower(), m.group(2), m.group(3)
    qubits = []
    if args_text.strip():
        for token in args_text.split(","):
            qm = _QUBIT_RE.match(token.strip())
            if not qm:
                raise ScaffIRError(
                    f"line {lineno}: bad qubit token {token.strip()!r}")
            qubits.append(_int(qm.group(1), "qubit index", lineno))
    param = None
    if param_text is not None:
        if op not in PARAMETRIC_GATES:
            raise ScaffIRError(f"line {lineno}: {op} takes no parameter")
        try:
            param = _eval_param(param_text)
        except Exception as exc:
            raise ScaffIRError(f"line {lineno}: {exc}") from exc
    try:
        return Gate(op, tuple(qubits), param=param)
    except Exception as exc:
        raise ScaffIRError(f"line {lineno}: {exc}") from exc


def emit_scaffir(circuit: Circuit) -> str:
    """Serialize a circuit back to ScaffIR text (round-trips with parse)."""
    lines = [f"// {circuit.name}",
             f"qubits {circuit.n_qubits}",
             f"cbits {circuit.n_cbits}"]
    for gate in circuit.gates:
        if gate.is_measure:
            lines.append(f"measure q{gate.qubits[0]} -> c{gate.cbit}")
        elif gate.param is not None:
            args = ", ".join(f"q{q}" for q in gate.qubits)
            lines.append(f"{gate.name}({gate.param!r}) {args}")
        else:
            args = ", ".join(f"q{q}" for q in gate.qubits)
            lines.append(f"{gate.name} {args}".rstrip())
    return "\n".join(lines) + "\n"
